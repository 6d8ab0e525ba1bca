// Spec-file and ledger-dump wire formats (runtime/spec_io.h): the
// contracts every soak replica process and the orchestrator rely on to
// agree byte-for-byte without shared memory.
#include "runtime/spec_io.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "consensus/block.h"
#include "consensus/ledger.h"

namespace lumiere::runtime {
namespace {

ScenarioSpec non_default_spec() {
  ScenarioSpec spec = spec_file_defaults();
  spec.params = ProtocolParams::for_n(7, Duration(25'000), 5);
  spec.protocol.pacemaker = "round-robin";
  spec.protocol.core = "chained-hotstuff";
  spec.seed = 0xBEEF;
  spec.auth_scheme = "hmac";
  spec.tcp_base_port = 28300;
  spec.obs.status_base_port = 28310;
  spec.obs.admin_token = "soak-token";
  spec.pipeline.enabled = true;
  spec.pipeline.workers = 2;
  spec.pipeline.queue_capacity = 64;
  spec.dissem = true;
  spec.workload->arrival = workload::Arrival::kPoisson;
  spec.workload->clients_per_node = 3;
  spec.workload->rate_per_client = 50.5;
  spec.workload->in_flight = 8;
  spec.workload->request_bytes = 128;
  spec.byzantine = {{2, "mute"}, {5, "equivocator"}};
  return spec;
}

TEST(SpecIoTest, SpecRoundTrips) {
  const ScenarioSpec spec = non_default_spec();
  std::string error;
  const auto parsed = parse_spec(serialize(spec), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->params.n, spec.params.n);
  EXPECT_EQ(parsed->params.f, spec.params.f);
  EXPECT_EQ(parsed->params.delta_cap, spec.params.delta_cap);
  EXPECT_EQ(parsed->params.x, spec.params.x);
  EXPECT_EQ(parsed->protocol.pacemaker, spec.protocol.pacemaker);
  EXPECT_EQ(parsed->protocol.core, spec.protocol.core);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->tcp_base_port, spec.tcp_base_port);
  EXPECT_EQ(parsed->obs.status_base_port, spec.obs.status_base_port);
  EXPECT_EQ(parsed->obs.admin_token, spec.obs.admin_token);
  EXPECT_EQ(parsed->pipeline.enabled, spec.pipeline.enabled);
  EXPECT_EQ(parsed->pipeline.workers, spec.pipeline.workers);
  EXPECT_EQ(parsed->pipeline.queue_capacity, spec.pipeline.queue_capacity);
  EXPECT_EQ(parsed->dissem, spec.dissem);
  ASSERT_TRUE(parsed->workload.has_value());
  EXPECT_EQ(parsed->workload->arrival, spec.workload->arrival);
  EXPECT_EQ(parsed->workload->clients_per_node, spec.workload->clients_per_node);
  EXPECT_DOUBLE_EQ(parsed->workload->rate_per_client, spec.workload->rate_per_client);
  EXPECT_EQ(parsed->workload->in_flight, spec.workload->in_flight);
  EXPECT_EQ(parsed->workload->request_bytes, spec.workload->request_bytes);
  EXPECT_EQ(parsed->byzantine, spec.byzantine);
  // Serialization is canonical: round-tripping is a fixed point.
  EXPECT_EQ(serialize(*parsed), serialize(spec));
}

TEST(SpecIoTest, SoakSpecTextIsPinned) {
  // The spec file `soak --n 5 --seed 1` writes: key set, key order and
  // bytes are a contract with every lumiere_node binary reading it.
  ScenarioSpec spec = spec_file_defaults();
  spec.params = ProtocolParams::for_n(5, spec.params.delta_cap);
  spec.protocol.core = "chained-hotstuff";
  spec.tcp_base_port = 28100;
  spec.obs.status_base_port = 28200;
  spec.obs.admin_token = "soak";
  EXPECT_EQ(serialize(spec),
            "lumiere-scenario v1\n"
            "n 5\n"
            "delta_us 10000\n"
            "x 3\n"
            "pacemaker lumiere\n"
            "core chained-hotstuff\n"
            "seed 1\n"
            "auth_scheme hmac\n"
            "tcp_base_port 28100\n"
            "status_base_port 28200\n"
            "admin_token soak\n"
            "pipeline 0\n"
            "pipeline_workers 4\n"
            "pipeline_queue 1024\n"
            "dissem 0\n"
            "arrival closed-loop\n"
            "clients_per_node 2\n"
            "rate_per_client 100\n"
            "in_flight 4\n"
            "request_bytes 64\n"
            "end\n");
}

TEST(SpecIoTest, BareFileKeepsTheFileDefaults) {
  std::string error;
  const auto spec = parse_spec("lumiere-scenario v1\ntcp_base_port 28330\nend\n", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->transport, TransportKind::kTcp);
  EXPECT_EQ(spec->tcp_base_port, 28330);
  EXPECT_EQ(spec->params.n, 4U);
  EXPECT_EQ(spec->params.f, 1U);
  EXPECT_EQ(spec->params.delta_cap, Duration::millis(10));
  EXPECT_EQ(spec->params.x, 3U);
  EXPECT_EQ(spec->protocol.pacemaker, "lumiere");
  EXPECT_EQ(spec->protocol.core, "simple-view");
  EXPECT_EQ(spec->seed, 1U);
  EXPECT_EQ(spec->auth_scheme, "hmac");
  EXPECT_EQ(spec->obs.status_base_port, 0);
  EXPECT_TRUE(spec->obs.admin_token.empty());
  EXPECT_FALSE(spec->pipeline.enabled);
  EXPECT_FALSE(spec->dissem);
  ASSERT_TRUE(spec->workload.has_value());
  EXPECT_EQ(spec->workload->arrival, workload::Arrival::kClosedLoop);
  EXPECT_EQ(spec->workload->clients_per_node, 2U);
  EXPECT_EQ(spec->workload->in_flight, 4U);
  EXPECT_EQ(spec->workload->request_bytes, 64U);
  EXPECT_TRUE(spec->byzantine.empty());
  // The defaults describe a workload on simple-view, which never commits,
  // so the bare file resolves only once it names a committing core.
  const auto errors = ScenarioBuilder(*spec).validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("committing core"), std::string::npos) << errors[0];
}

TEST(SpecIoTest, PrintParseResolveGivesTheSameScenario) {
  const ScenarioSpec spec = non_default_spec();
  std::string error;
  const auto parsed = parse_spec(serialize(spec), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const Scenario a = ScenarioBuilder(spec).scenario();
  const Scenario b = ScenarioBuilder(*parsed).scenario();
  EXPECT_EQ(b.params.n, a.params.n);
  EXPECT_EQ(b.params.f, a.params.f);
  EXPECT_EQ(b.params.delta_cap, a.params.delta_cap);
  EXPECT_EQ(b.params.x, a.params.x);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.transport, a.transport);
  EXPECT_EQ(b.tcp_base_port, a.tcp_base_port);
  EXPECT_EQ(b.obs.status_base_port, a.obs.status_base_port);
  EXPECT_EQ(b.obs.admin_token, a.obs.admin_token);
  EXPECT_EQ(b.dissem, a.dissem);
  ASSERT_EQ(b.nodes.size(), a.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const NodeSpec& x = a.nodes[i];
    const NodeSpec& y = b.nodes[i];
    EXPECT_EQ(y.protocol.pacemaker, x.protocol.pacemaker) << "node " << i;
    EXPECT_EQ(y.protocol.core, x.protocol.core) << "node " << i;
    EXPECT_EQ(y.protocol.shared_seed, x.protocol.shared_seed) << "node " << i;
    EXPECT_EQ(y.join_time, x.join_time) << "node " << i;
    EXPECT_EQ(y.clock_drift_ppm, x.clock_drift_ppm) << "node " << i;
    ASSERT_EQ(y.workload.has_value(), x.workload.has_value()) << "node " << i;
    EXPECT_EQ(y.workload->arrival, x.workload->arrival) << "node " << i;
    EXPECT_EQ(y.workload->clients_per_node, x.workload->clients_per_node) << "node " << i;
    EXPECT_DOUBLE_EQ(y.workload->rate_per_client, x.workload->rate_per_client) << "node " << i;
    EXPECT_EQ(y.workload->request_bytes, x.workload->request_bytes) << "node " << i;
    EXPECT_STREQ(y.behavior()->name(), x.behavior()->name()) << "node " << i;
  }
  EXPECT_STREQ(b.nodes[2].behavior()->name(), "mute");
  EXPECT_STREQ(b.nodes[5].behavior()->name(), "equivocator");
}

TEST(SpecIoTest, ParseRejectsWrongHeader) {
  std::string error;
  EXPECT_FALSE(parse_spec("lumiere-scenario v999\nend\n", error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(SpecIoTest, ParseRejectsTruncatedSpec) {
  std::string text = serialize(non_default_spec());
  text.erase(text.rfind("end"));  // drop the terminator
  std::string error;
  EXPECT_FALSE(parse_spec(text, error).has_value());
}

TEST(SpecIoTest, ParseRejectsTheRetiredBlockSyncKey) {
  // Block sync is always on; a spec still carrying its old toggle is
  // rejected as an unknown key rather than silently accepted.
  std::string text = serialize(non_default_spec());
  text.insert(text.rfind("end"), "block_sync 1\n");
  std::string error;
  EXPECT_FALSE(parse_spec(text, error).has_value());
  EXPECT_NE(error.find("block_sync"), std::string::npos) << error;
}

TEST(SpecIoTest, ResolvesDeterministically) {
  ScenarioSpec spec = spec_file_defaults();
  spec.params = ProtocolParams::for_n(4, spec.params.delta_cap);
  spec.protocol.core = "chained-hotstuff";
  spec.tcp_base_port = 28320;
  spec.obs.status_base_port = 0;
  const Scenario a = ScenarioBuilder(spec).scenario();
  const Scenario b = ScenarioBuilder(spec).scenario();
  EXPECT_EQ(a.params.n, 4U);
  EXPECT_EQ(a.tcp_base_port, spec.tcp_base_port);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.nodes.size(), 4U);
  EXPECT_TRUE(a.nodes[0].workload.has_value()) << "soak specs always carry a workload";
}

TEST(SpecIoTest, TooFewNodesOrTooSmallXAreRejectedNotAsserted) {
  // Each file parses (the values are well-formed numbers), and resolving
  // it reports the model violation instead of aborting in
  // ProtocolParams::for_n. n = 0 must not wrap f = (n - 1) / 3 into a
  // huge f that makes 3f + 1 wrap to 0 and pass.
  const char* const bad[] = {"n 3", "x 1", "n 0"};
  for (const char* line : bad) {
    const std::string text = "lumiere-scenario v1\ncore chained-hotstuff\ntcp_base_port 28340\n" +
                             std::string(line) + "\nend\n";
    std::string error;
    const auto spec = parse_spec(text, error);
    ASSERT_TRUE(spec.has_value()) << line << ": " << error;
    const auto errors = ScenarioBuilder(*spec).validate();
    ASSERT_FALSE(errors.empty()) << line;
    EXPECT_NE(errors[0].find("params:"), std::string::npos) << line << ": " << errors[0];
    EXPECT_THROW((void)ScenarioBuilder(*spec).scenario(), std::invalid_argument) << line;
  }
}

TEST(SpecIoTest, BehaviorOnANodeOutsideTheClusterIsRejected) {
  ScenarioSpec spec = non_default_spec();
  spec.byzantine.push_back({7, "mute"});
  std::string error;
  const auto parsed = parse_spec(serialize(spec), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto errors = ScenarioBuilder(*parsed).validate();
  ASSERT_EQ(errors.size(), 1U);
  EXPECT_NE(errors[0].find("byzantine: node 7"), std::string::npos) << errors[0];
}

// ----------------------------------------------------------------- ledger

TEST(SpecIoTest, LedgerDumpRoundTrips) {
  consensus::Ledger ledger;
  const consensus::Block& genesis = consensus::Block::genesis();
  const auto qc = consensus::QuorumCert::genesis(genesis.hash());
  const auto b1 = std::make_shared<const consensus::Block>(
      genesis.hash(), 3, std::vector<std::uint8_t>{0xAA, 0xBB}, qc);
  // An empty payload survives.
  const auto b2 =
      std::make_shared<const consensus::Block>(b1->hash(), 4, std::vector<std::uint8_t>{}, qc);
  ledger.commit(b1, TimePoint(10));
  ledger.commit(b2, TimePoint(20));

  std::string error;
  const auto records = parse_ledger(render_ledger(ledger), error);
  ASSERT_TRUE(records.has_value()) << error;
  ASSERT_EQ(records->size(), 2U);
  EXPECT_EQ((*records)[0].view, 3);
  EXPECT_EQ((*records)[0].hash.hex(), b1->hash().hex());
  EXPECT_EQ(std::vector<std::uint8_t>((*records)[0].payload.begin(), (*records)[0].payload.end()),
            (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ((*records)[1].view, 4);
  EXPECT_TRUE((*records)[1].payload.empty());
}

TEST(SpecIoTest, LedgerParseRejectsTruncatedDump) {
  consensus::Ledger ledger;
  const consensus::Block& genesis = consensus::Block::genesis();
  const auto qc = consensus::QuorumCert::genesis(genesis.hash());
  ledger.commit(std::make_shared<const consensus::Block>(genesis.hash(), 1,
                                                         std::vector<std::uint8_t>{0x01}, qc),
                TimePoint(1));
  std::string text = render_ledger(ledger);
  text.erase(text.rfind("END"));
  std::string error;
  EXPECT_FALSE(parse_ledger(text, error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace lumiere::runtime
