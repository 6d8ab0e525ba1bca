#include "runtime/spec_io.h"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>

#include "adversary/behaviors.h"

namespace lumiere::runtime {

namespace {

constexpr const char* kSpecHeader = "lumiere-scenario v1";
constexpr const char* kLedgerHeader = "ledger v1";

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool hex_decode(const std::string& text, std::vector<std::uint8_t>& out) {
  if (text.size() % 2 != 0) return false;
  out.clear();
  out.reserve(text.size() / 2);
  for (std::size_t i = 0; i < text.size(); i += 2) {
    const int hi = hex_nibble(text[i]);
    const int lo = hex_nibble(text[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::optional<workload::Arrival> parse_arrival(const std::string& name) {
  if (name == "closed-loop") return workload::Arrival::kClosedLoop;
  if (name == "constant") return workload::Arrival::kConstant;
  if (name == "poisson") return workload::Arrival::kPoisson;
  if (name == "bursty") return workload::Arrival::kBursty;
  return std::nullopt;
}

}  // namespace

std::string serialize(const ClusterSpec& spec) {
  std::ostringstream out;
  out << kSpecHeader << "\n";
  out << "n " << spec.n << "\n";
  out << "delta_us " << spec.delta_us << "\n";
  out << "x " << spec.x << "\n";
  out << "pacemaker " << spec.pacemaker << "\n";
  out << "core " << spec.core << "\n";
  out << "seed " << spec.seed << "\n";
  out << "auth_scheme " << spec.auth_scheme << "\n";
  out << "tcp_base_port " << spec.tcp_base_port << "\n";
  out << "status_base_port " << spec.status_base_port << "\n";
  if (!spec.admin_token.empty()) out << "admin_token " << spec.admin_token << "\n";
  out << "pipeline " << (spec.pipeline ? 1 : 0) << "\n";
  out << "pipeline_workers " << spec.pipeline_workers << "\n";
  out << "pipeline_queue " << spec.pipeline_queue << "\n";
  out << "dissem " << (spec.dissem ? 1 : 0) << "\n";
  out << "arrival " << spec.arrival << "\n";
  out << "clients_per_node " << spec.clients_per_node << "\n";
  out << "rate_per_client " << spec.rate_per_client << "\n";
  out << "in_flight " << spec.in_flight << "\n";
  out << "request_bytes " << spec.request_bytes << "\n";
  for (const auto& [node, name] : spec.behaviors) {
    out << "behavior " << node << " " << name << "\n";
  }
  out << "end\n";
  return out.str();
}

std::optional<ClusterSpec> parse_cluster_spec(const std::string& text, std::string& error) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kSpecHeader) {
    error = "spec: missing header '" + std::string(kSpecHeader) + "'";
    return std::nullopt;
  }
  ClusterSpec spec;
  bool terminated = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") {
      terminated = true;
      break;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    bool ok = true;
    if (key == "n") {
      ok = static_cast<bool>(fields >> spec.n);
    } else if (key == "delta_us") {
      ok = static_cast<bool>(fields >> spec.delta_us) && spec.delta_us > 0;
    } else if (key == "x") {
      ok = static_cast<bool>(fields >> spec.x);
    } else if (key == "pacemaker") {
      ok = static_cast<bool>(fields >> spec.pacemaker);
    } else if (key == "core") {
      ok = static_cast<bool>(fields >> spec.core);
    } else if (key == "seed") {
      ok = static_cast<bool>(fields >> spec.seed);
    } else if (key == "auth_scheme") {
      ok = static_cast<bool>(fields >> spec.auth_scheme);
    } else if (key == "tcp_base_port") {
      ok = static_cast<bool>(fields >> spec.tcp_base_port);
    } else if (key == "status_base_port") {
      ok = static_cast<bool>(fields >> spec.status_base_port);
    } else if (key == "admin_token") {
      ok = static_cast<bool>(fields >> spec.admin_token);
    } else if (key == "pipeline") {
      int v = 0;
      ok = static_cast<bool>(fields >> v);
      spec.pipeline = v != 0;
    } else if (key == "pipeline_workers") {
      ok = static_cast<bool>(fields >> spec.pipeline_workers);
    } else if (key == "pipeline_queue") {
      ok = static_cast<bool>(fields >> spec.pipeline_queue);
    } else if (key == "dissem") {
      int v = 0;
      ok = static_cast<bool>(fields >> v);
      spec.dissem = v != 0;
    } else if (key == "arrival") {
      ok = static_cast<bool>(fields >> spec.arrival) &&
           parse_arrival(spec.arrival).has_value();
    } else if (key == "clients_per_node") {
      ok = static_cast<bool>(fields >> spec.clients_per_node);
    } else if (key == "rate_per_client") {
      ok = static_cast<bool>(fields >> spec.rate_per_client);
    } else if (key == "in_flight") {
      ok = static_cast<bool>(fields >> spec.in_flight);
    } else if (key == "request_bytes") {
      ok = static_cast<bool>(fields >> spec.request_bytes);
    } else if (key == "behavior") {
      ProcessId node = kNoProcess;
      std::string name;
      ok = static_cast<bool>(fields >> node >> name) && adversary::has_behavior(name);
      if (ok) spec.behaviors[node] = name;
    } else {
      error = "spec: unknown key '" + key + "'";
      return std::nullopt;
    }
    if (!ok) {
      error = "spec: bad value for '" + key + "'";
      return std::nullopt;
    }
  }
  if (!terminated) {
    error = "spec: missing 'end' terminator (truncated?)";
    return std::nullopt;
  }
  for (const auto& [node, name] : spec.behaviors) {
    if (node >= spec.n) {
      error = "spec: behavior node " + std::to_string(node) + " out of range";
      return std::nullopt;
    }
  }
  return spec;
}

ScenarioBuilder to_builder(const ClusterSpec& spec) {
  ScenarioBuilder builder;
  builder.params(ProtocolParams::for_n(spec.n, Duration(spec.delta_us), spec.x))
      .pacemaker(spec.pacemaker)
      .core(spec.core)
      .seed(spec.seed)
      .auth_scheme(spec.auth_scheme)
      .transport_tcp(spec.tcp_base_port);
  if (spec.pipeline) {
    PipelineSpec pipeline;
    pipeline.enabled = true;
    pipeline.workers = spec.pipeline_workers;
    pipeline.queue_capacity = spec.pipeline_queue;
    builder.pipeline(pipeline);
  }
  workload::WorkloadSpec workload;
  workload.arrival = *parse_arrival(spec.arrival);
  workload.clients_per_node = spec.clients_per_node;
  workload.rate_per_client = spec.rate_per_client;
  workload.in_flight = spec.in_flight;
  workload.request_bytes = spec.request_bytes;
  builder.workload(workload);
  if (spec.dissem) builder.dissemination();
  if (spec.status_base_port != 0) {
    obs::ObsSpec obs;
    obs.status_base_port = spec.status_base_port;
    obs.admin_token = spec.admin_token;
    builder.observability(obs);
  }
  for (const auto& [node, name] : spec.behaviors) {
    builder.node(node).behavior([name] { return adversary::make_behavior(name); });
  }
  return builder;
}

LedgerRecord LedgerRecord::owning(View view, const crypto::Digest& hash,
                                  std::vector<std::uint8_t> payload) {
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(std::move(payload));
  return LedgerRecord{view, hash, std::span<const std::uint8_t>(*bytes), bytes};
}

std::vector<LedgerRecord> ledger_records(const consensus::Ledger& ledger) {
  std::vector<LedgerRecord> records;
  records.reserve(ledger.size());
  for (const consensus::CommittedEntry& entry : ledger.entries()) {
    records.push_back(LedgerRecord{entry.view(), entry.hash(), entry.payload, entry.block});
  }
  return records;
}

std::string render_ledger(const consensus::Ledger& ledger) {
  std::ostringstream out;
  out << kLedgerHeader << " " << ledger.size() << "\n";
  for (const consensus::CommittedEntry& entry : ledger.entries()) {
    out << "entry " << entry.view() << " " << entry.hash().hex() << " "
        << hex_encode(entry.payload) << "\n";
  }
  out << "END\n";
  return out.str();
}

std::optional<std::vector<LedgerRecord>> parse_ledger(const std::string& text,
                                                      std::string& error) {
  std::istringstream in(text);
  std::string word;
  std::size_t count = 0;
  {
    std::string header_tag, header_version;
    if (!(in >> header_tag >> header_version >> count) || header_tag != "ledger" ||
        header_version != "v1") {
      error = "ledger: missing '" + std::string(kLedgerHeader) + " <count>' header";
      return std::nullopt;
    }
  }
  std::vector<LedgerRecord> records;
  records.reserve(count);
  bool terminated = false;
  while (in >> word) {
    if (word == "END") {
      terminated = true;
      break;
    }
    if (word != "entry") {
      error = "ledger: expected 'entry' or 'END', got '" + word + "'";
      return std::nullopt;
    }
    View view = -1;
    std::string hash_hex, payload_hex;
    if (!(in >> view >> hash_hex)) {
      error = "ledger: truncated entry";
      return std::nullopt;
    }
    // The payload may be empty, in which case the line ends after the
    // hash — operator>> would swallow the next line's "entry". Read the
    // remainder of the line instead.
    std::string rest;
    std::getline(in, rest);
    std::istringstream rest_in(rest);
    rest_in >> payload_hex;
    std::vector<std::uint8_t> hash_bytes;
    if (!hex_decode(hash_hex, hash_bytes) || hash_bytes.size() != crypto::Digest::kSize) {
      error = "ledger: bad hash hex";
      return std::nullopt;
    }
    std::array<std::uint8_t, crypto::Digest::kSize> hash_array{};
    std::copy(hash_bytes.begin(), hash_bytes.end(), hash_array.begin());
    std::vector<std::uint8_t> payload;
    if (!payload_hex.empty() && !hex_decode(payload_hex, payload)) {
      error = "ledger: bad payload hex";
      return std::nullopt;
    }
    records.push_back(
        LedgerRecord::owning(view, crypto::Digest(hash_array), std::move(payload)));
  }
  if (!terminated) {
    error = "ledger: missing END terminator (truncated?)";
    return std::nullopt;
  }
  if (records.size() != count) {
    error = "ledger: header count " + std::to_string(count) + " != " +
            std::to_string(records.size()) + " entries";
    return std::nullopt;
  }
  return records;
}

}  // namespace lumiere::runtime
