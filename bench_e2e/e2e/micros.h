// Layer micro-benchmarks, run in every traced run.
//
// Each one times a public library function on fixed inputs, so a change
// to one layer shows up here even when the end-to-end numbers cannot
// resolve it, and every workload reports the same numbers. Each micro
// serves one workload's layer (README.md names which); every result is
// the median of several repetitions.
#pragma once

#include <vector>

#include "e2e/metrics.h"

namespace lumiere::e2e {

/// sim.schedule_pop_ns, crypto.hmac_qc_verify_us_n31,
/// crypto.ed25519_sign_us, crypto.ed25519_verify_us,
/// ser.{encode,decode}_ns.{proposal,vote,view,batch_push} and
/// mempool.add_lease_commit_ns. Adds a failed check when a micro's output
/// is wrong (a QC that does not verify, a frame that does not decode).
void run_micros(Metrics& out, std::vector<Check>& checks);

}  // namespace lumiere::e2e
