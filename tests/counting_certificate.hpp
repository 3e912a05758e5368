// Exhaustive counting certificate for the tests: check_counting on every
// input vector in [0, m]^fan-in. A handful of random draws can miss a
// network that does not count (a block cascade one stage short passes
// most seeds of a 10-draw check), while the full sweep of a small box
// refutes it; the box must stay small enough to sweep, so a request for
// more than 2^16 vectors is refused rather than run.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "core/verify.hpp"

namespace cn {

inline constexpr std::uint64_t kMaxCertificateVectors = std::uint64_t{1}
                                                        << 16;

/// Checks every input vector with entries in [0, m], in odometer order,
/// and reports the first one that does not count (its failure names the
/// vector). Throws std::invalid_argument when (m + 1)^fan-in exceeds
/// kMaxCertificateVectors.
inline VerifyReport check_counting_exhaustive(const Network& net,
                                              std::uint64_t m) {
  const std::uint32_t w = net.fan_in();
  std::uint64_t vectors = 1;
  for (std::uint32_t i = 0; i < w; ++i) {
    if (m >= kMaxCertificateVectors ||
        vectors > kMaxCertificateVectors / (m + 1)) {
      throw std::invalid_argument(
          "check_counting_exhaustive: [0, " + std::to_string(m) + "]^" +
          std::to_string(w) + " exceeds 2^16 input vectors");
    }
    vectors *= m + 1;
  }
  std::vector<std::uint64_t> v(w, 0);
  for (;;) {
    if (VerifyReport r = check_counting(net, v); !r.ok) {
      std::ostringstream os;
      os << "input (";
      for (std::uint32_t i = 0; i < w; ++i) os << (i > 0 ? "," : "") << v[i];
      os << "): " << r.failure;
      r.failure = os.str();
      return r;
    }
    std::uint32_t i = 0;
    while (i < w && v[i] == m) v[i++] = 0;
    if (i == w) return {};
    ++v[i];
  }
}

}  // namespace cn
