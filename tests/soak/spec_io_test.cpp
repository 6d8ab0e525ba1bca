// ClusterSpec and ledger-dump wire formats (runtime/spec_io.h): the
// contracts every soak replica process and the orchestrator rely on to
// agree byte-for-byte without shared memory.
#include "runtime/spec_io.h"

#include <gtest/gtest.h>

#include <string>

#include "consensus/block.h"
#include "consensus/ledger.h"

namespace lumiere::runtime {
namespace {

ClusterSpec non_default_spec() {
  ClusterSpec spec;
  spec.n = 7;
  spec.delta_us = 25'000;
  spec.x = 5;
  spec.pacemaker = "round-robin";
  spec.core = "chained-hotstuff";
  spec.seed = 0xBEEF;
  spec.auth_scheme = "hmac";
  spec.tcp_base_port = 28300;
  spec.status_base_port = 28310;
  spec.admin_token = "soak-token";
  spec.pipeline = true;
  spec.pipeline_workers = 2;
  spec.pipeline_queue = 64;
  spec.dissem = true;
  spec.arrival = "poisson";
  spec.clients_per_node = 3;
  spec.rate_per_client = 50.5;
  spec.in_flight = 8;
  spec.request_bytes = 128;
  spec.behaviors[2] = "mute";
  spec.behaviors[5] = "equivocator";
  return spec;
}

TEST(SpecIoTest, ClusterSpecRoundTrips) {
  const ClusterSpec spec = non_default_spec();
  std::string error;
  const auto parsed = parse_cluster_spec(serialize(spec), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->n, spec.n);
  EXPECT_EQ(parsed->delta_us, spec.delta_us);
  EXPECT_EQ(parsed->x, spec.x);
  EXPECT_EQ(parsed->pacemaker, spec.pacemaker);
  EXPECT_EQ(parsed->core, spec.core);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->tcp_base_port, spec.tcp_base_port);
  EXPECT_EQ(parsed->status_base_port, spec.status_base_port);
  EXPECT_EQ(parsed->admin_token, spec.admin_token);
  EXPECT_EQ(parsed->pipeline, spec.pipeline);
  EXPECT_EQ(parsed->pipeline_workers, spec.pipeline_workers);
  EXPECT_EQ(parsed->pipeline_queue, spec.pipeline_queue);
  EXPECT_EQ(parsed->dissem, spec.dissem);
  EXPECT_EQ(parsed->arrival, spec.arrival);
  EXPECT_EQ(parsed->clients_per_node, spec.clients_per_node);
  EXPECT_DOUBLE_EQ(parsed->rate_per_client, spec.rate_per_client);
  EXPECT_EQ(parsed->in_flight, spec.in_flight);
  EXPECT_EQ(parsed->request_bytes, spec.request_bytes);
  EXPECT_EQ(parsed->behaviors, spec.behaviors);
  // Serialization is canonical: round-tripping is a fixed point.
  EXPECT_EQ(serialize(*parsed), serialize(spec));
}

TEST(SpecIoTest, ParseRejectsWrongHeader) {
  std::string error;
  EXPECT_FALSE(parse_cluster_spec("lumiere-scenario v999\nend\n", error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(SpecIoTest, ParseRejectsTruncatedSpec) {
  std::string text = serialize(non_default_spec());
  text.erase(text.rfind("end"));  // drop the terminator
  std::string error;
  EXPECT_FALSE(parse_cluster_spec(text, error).has_value());
}

TEST(SpecIoTest, ParseRejectsTheRetiredBlockSyncKey) {
  // Block sync is always on; a spec still carrying its old toggle is
  // rejected as an unknown key rather than silently accepted.
  std::string text = serialize(non_default_spec());
  text.insert(text.rfind("end"), "block_sync 1\n");
  std::string error;
  EXPECT_FALSE(parse_cluster_spec(text, error).has_value());
  EXPECT_NE(error.find("block_sync"), std::string::npos) << error;
}

TEST(SpecIoTest, ToBuilderResolvesDeterministically) {
  ClusterSpec spec;
  spec.n = 4;
  spec.core = "chained-hotstuff";
  spec.tcp_base_port = 28320;
  spec.status_base_port = 0;
  const Scenario a = to_builder(spec).scenario();
  const Scenario b = to_builder(spec).scenario();
  EXPECT_EQ(a.params.n, 4U);
  EXPECT_EQ(a.tcp_base_port, spec.tcp_base_port);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.nodes.size(), 4U);
  EXPECT_TRUE(a.nodes[0].workload.has_value()) << "soak specs always carry a workload";
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
