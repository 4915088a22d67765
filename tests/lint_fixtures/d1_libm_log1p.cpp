// D1 fixture: an exponential drawn through the host libm's log1p must be
// rejected. glibc's FMA and non-FMA builds of log1p differ in the last
// bit on ~4e-4 of draws, so a generator written this way makes request
// timelines (and every digest and golden downstream) depend on the host.
// sim/exponential.h owns the model's one log1p. NOT compiled — scanned by
// anufs_lint only.
#include <cmath>
#include <cstdint>

namespace fixture {

inline double uniform(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

inline double arrival_gap(std::uint64_t& state, double rate) {
  return -std::log1p(-uniform(state)) / rate;  // expect-lint: D1
}

inline double demand(std::uint64_t& state, double mean) {
  using std::log1p;
  return -mean * log1p(-uniform(state));  // expect-lint: D1
}

inline float gap_f(float u) { return -log1pf(-u); }  // expect-lint: D1

inline double builtin_gap(double u) {
  return -__builtin_log1p(-u);  // expect-lint: D1
}

// A name that merely starts with log1p is not the libm call.
inline double log1p_port(double x) { return x; }
inline double ported_gap(double u) { return -log1p_port(-u); }

}  // namespace fixture
