// Heap counters for the sim test binary: alloc_counter.cpp replaces the
// global operator new so tests can pin allocation properties. Counting is
// always on (two relaxed atomic increments); tests snapshot the counters
// around the region under test.
#pragma once

#include <cstddef>

namespace lumiere::sim::alloc {

/// Calls to operator new since the program started.
[[nodiscard]] std::size_t count();
/// Bytes requested from operator new since the program started.
[[nodiscard]] std::size_t bytes();

}  // namespace lumiere::sim::alloc
