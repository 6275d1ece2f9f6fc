// Process-wide heap-allocation counter (alloc_count.cpp replaces the global
// operator new of the benchmark binary).
#pragma once

#include <cstdint>

namespace perfbench {

/// Starts or stops counting global operator new calls (all threads).
void set_alloc_counting(bool on);

/// Allocations counted so far while counting was on.
std::uint64_t alloc_count();

}  // namespace perfbench
