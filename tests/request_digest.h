// Order-sensitive digest of a request stream, for pinning generator
// output byte for byte: every request's time bits, file set and demand
// bits, in sequence.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "hash/mix64.h"
#include "workload/spec.h"

namespace anufs::workload {

inline std::uint64_t request_digest(const std::vector<RequestEvent>& requests) {
  std::uint64_t h = requests.size();
  for (const RequestEvent& r : requests) {
    h = hash::mix64(h ^ std::bit_cast<std::uint64_t>(r.time));
    h = hash::mix64(h ^ r.file_set.value);
    h = hash::mix64(h ^ std::bit_cast<std::uint64_t>(r.demand));
  }
  return h;
}

}  // namespace anufs::workload
