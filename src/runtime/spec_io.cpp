#include "runtime/spec_io.h"

#include <algorithm>
#include <array>
#include <functional>
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
  for (const auto arrival : {workload::Arrival::kClosedLoop, workload::Arrival::kConstant,
                             workload::Arrival::kPoisson, workload::Arrival::kBursty}) {
    if (name == workload::to_string(arrival)) return arrival;
  }
  return std::nullopt;
}

/// The workload the workload keys read and write. A parsed spec always
/// has one (spec_file_defaults()); a printed spec without one reads as
/// zero clients per node.
workload::WorkloadSpec& load(ScenarioSpec& spec) { return *spec.workload; }
const workload::WorkloadSpec& load(const ScenarioSpec& spec) {
  static const workload::WorkloadSpec kNone = [] {
    workload::WorkloadSpec none = *spec_file_defaults().workload;
    none.clients_per_node = 0;
    return none;
  }();
  return spec.workload ? *spec.workload : kNone;
}

/// One spec-file key. `print` gives the values a spec writes under it, one
/// "key value" line each: none for an unset optional key, one per entry
/// for a repeated key. `parse` reads one line's value into a spec.
struct Key {
  const char* name;
  std::function<std::vector<std::string>(const ScenarioSpec&)> print;
  std::function<bool(std::istream&, ScenarioSpec&)> parse;
};

template <typename T>
std::vector<std::string> one(const T& value) {
  std::ostringstream out;
  out << value;
  return {out.str()};
}

/// A key holding one field as-is. `get` is a generic lambda reaching the
/// field, so one accessor serves printing and parsing.
template <typename Get>
Key field(const char* name, Get get) {
  return {name, [get](const ScenarioSpec& spec) { return one(get(spec)); },
          [get](std::istream& in, ScenarioSpec& spec) {
            return static_cast<bool>(in >> get(spec));
          }};
}

/// A 0/1 key; any non-zero number parses as on.
template <typename Get, typename Set>
Key flag(const char* name, Get get, Set set) {
  return {name, [get](const ScenarioSpec& spec) { return one(get(spec) ? 1 : 0); },
          [set](std::istream& in, ScenarioSpec& spec) {
            int value = 0;
            if (!(in >> value)) return false;
            set(spec, value != 0);
            return true;
          }};
}

/// Every key, in the order a spec file prints them.
const std::vector<Key>& keys() {
  static const std::vector<Key> table = {
      field("n", [](auto& s) -> auto& { return s.params.n; }),
      {"delta_us", [](const ScenarioSpec& s) { return one(s.params.delta_cap.ticks()); },
       [](std::istream& in, ScenarioSpec& s) {
         std::int64_t us = 0;
         if (!(in >> us) || us <= 0) return false;
         s.params.delta_cap = Duration(us);
         return true;
       }},
      field("x", [](auto& s) -> auto& { return s.params.x; }),
      field("pacemaker", [](auto& s) -> auto& { return s.protocol.pacemaker; }),
      field("core", [](auto& s) -> auto& { return s.protocol.core; }),
      field("seed", [](auto& s) -> auto& { return s.seed; }),
      field("auth_scheme", [](auto& s) -> auto& { return s.auth_scheme; }),
      field("tcp_base_port", [](auto& s) -> auto& { return s.tcp_base_port; }),
      field("status_base_port", [](auto& s) -> auto& { return s.obs.status_base_port; }),
      {"admin_token",
       [](const ScenarioSpec& s) {
         return s.obs.admin_token.empty() ? std::vector<std::string>() : one(s.obs.admin_token);
       },
       [](std::istream& in, ScenarioSpec& s) {
         return static_cast<bool>(in >> s.obs.admin_token);
       }},
      flag("pipeline", [](const ScenarioSpec& s) { return s.pipeline.enabled; },
           [](ScenarioSpec& s, bool on) { s.pipeline.enabled = on; }),
      field("pipeline_workers", [](auto& s) -> auto& { return s.pipeline.workers; }),
      field("pipeline_queue", [](auto& s) -> auto& { return s.pipeline.queue_capacity; }),
      flag("dissem", [](const ScenarioSpec& s) { return s.dissem; },
           [](ScenarioSpec& s, bool on) { s.dissem = on; }),
      {"arrival", [](const ScenarioSpec& s) { return one(workload::to_string(load(s).arrival)); },
       [](std::istream& in, ScenarioSpec& s) {
         std::string name;
         const auto arrival = in >> name ? parse_arrival(name) : std::nullopt;
         if (arrival) load(s).arrival = *arrival;
         return arrival.has_value();
       }},
      field("clients_per_node", [](auto& s) -> auto& { return load(s).clients_per_node; }),
      field("rate_per_client", [](auto& s) -> auto& { return load(s).rate_per_client; }),
      field("in_flight", [](auto& s) -> auto& { return load(s).in_flight; }),
      field("request_bytes", [](auto& s) -> auto& { return load(s).request_bytes; }),
      {"behavior",
       [](const ScenarioSpec& s) {
         std::vector<std::string> values;
         for (const BehaviorAssignment& assignment : s.byzantine) {
           values.push_back(std::to_string(assignment.node) + " " + assignment.behavior);
         }
         return values;
       },
       [](std::istream& in, ScenarioSpec& s) {
         BehaviorAssignment assignment;
         if (!(in >> assignment.node >> assignment.behavior) ||
             !adversary::has_behavior(assignment.behavior)) {
           return false;
         }
         s.byzantine.push_back(std::move(assignment));
         return true;
       }},
  };
  return table;
}

}  // namespace

ScenarioSpec spec_file_defaults() {
  ScenarioSpec spec;
  spec.transport = TransportKind::kTcp;
  workload::WorkloadSpec workload;
  workload.arrival = workload::Arrival::kClosedLoop;
  workload.clients_per_node = 2;
  spec.workload = workload;
  return spec;
}

std::string serialize(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << kSpecHeader << "\n";
  for (const Key& key : keys()) {
    for (const std::string& value : key.print(spec)) out << key.name << " " << value << "\n";
  }
  out << "end\n";
  return out.str();
}

std::optional<ScenarioSpec> parse_spec(const std::string& text, std::string& error) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kSpecHeader) {
    error = "spec: missing header '" + std::string(kSpecHeader) + "'";
    return std::nullopt;
  }
  ScenarioSpec spec = spec_file_defaults();
  bool terminated = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") {
      terminated = true;
      break;
    }
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    const std::vector<Key>& table = keys();
    const auto key =
        std::find_if(table.begin(), table.end(), [&](const Key& k) { return name == k.name; });
    if (key == table.end()) {
      error = "spec: unknown key '" + name + "'";
      return std::nullopt;
    }
    if (!key->parse(fields, spec)) {
      error = "spec: bad value for '" + name + "'";
      return std::nullopt;
    }
  }
  if (!terminated) {
    error = "spec: missing 'end' terminator (truncated?)";
    return std::nullopt;
  }
  // f follows n as in ProtocolParams::for_n, without its assert: validate()
  // reports an n below 4 instead.
  spec.params.f = spec.params.n > 0 ? (spec.params.n - 1) / 3 : 0;
  return spec;
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
