// Output checks of vela_bench. Each holds at any float summation order a
// legitimate change may pick: they compare only what the repository's own
// contracts pin exactly (step-0 loss against the dense twin at the
// equivalence tests' tolerance, byte ledgers, bit-identity across transport
// and store budget) and never absolute losses or per-step losses after
// step 0, where top-k routing flips make runs drift apart.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace vela_bench {

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;  // first failure; empty when ok
  std::vector<std::size_t> bad_steps;  // prefix steps the check failed on
};

// Tolerance of tests/test_equivalence.cpp's InitialLossMatchesDenseTwin.
inline constexpr float kStep0Tolerance = 1e-5f;

// The system's first training loss (computed before any update) equals the
// single-process dense twin's loss on the same batch.
inline Check check_step0_loss(float system_loss, float dense_loss) {
  Check c;
  c.name = "step0_matches_dense_twin";
  const float diff = std::fabs(system_loss - dense_loss);
  if (!(diff <= kStep0Tolerance)) {  // also rejects NaN
    c.ok = false;
    c.bad_steps.push_back(0);
    std::ostringstream os;
    os.precision(9);
    os << "step-0 loss " << system_loss << " vs dense twin " << dense_loss
       << " (|diff| " << diff << " > " << kStep0Tolerance << ")";
    c.detail = os.str();
  }
  return c;
}

// Every step's measured external bytes equal the analytic traffic model's
// count for the step's routing and placement plus the fixed control traffic
// (the end-of-step optimizer round trip to each cross-node worker).
inline Check check_ledger(const std::vector<std::uint64_t>& measured,
                          const std::vector<std::uint64_t>& modeled,
                          std::uint64_t control_bytes) {
  Check c;
  c.name = "external_bytes_match_traffic_model";
  if (measured.size() != modeled.size() || measured.empty()) {
    c.ok = false;
    c.detail = "ledger length mismatch or empty ledger";
    return c;
  }
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (measured[i] == modeled[i] + control_bytes) continue;
    c.bad_steps.push_back(i);
    if (c.ok) {
      c.ok = false;
      std::ostringstream os;
      os << "step " << i << ": measured " << measured[i] << " B, model "
         << modeled[i] << " B + control " << control_bytes << " B";
      c.detail = os.str();
    }
  }
  return c;
}

inline Check check_finite(const std::vector<float>& losses) {
  Check c;
  c.name = "losses_finite";
  for (std::size_t i = 0; i < losses.size(); ++i) {
    if (std::isfinite(losses[i])) continue;
    c.bad_steps.push_back(i);
    if (c.ok) {
      c.ok = false;
      c.detail = "non-finite loss at step " + std::to_string(i);
    }
  }
  if (losses.empty()) {
    c.ok = false;
    c.detail = "no losses recorded";
  }
  return c;
}

// Bit-for-bit equality with a reference run (same seed and wire dtype) that
// differs only in transport and store budget — both of which the repository
// guarantees leave every loss bit-identical.
inline Check check_bit_identical(const std::vector<float>& losses,
                                 const std::vector<float>& reference) {
  Check c;
  c.name = "losses_bit_identical_to_reference";
  if (losses.size() != reference.size() || losses.empty()) {
    c.ok = false;
    c.detail = "reference length mismatch or empty";
    return c;
  }
  for (std::size_t i = 0; i < losses.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(losses[i]) ==
        std::bit_cast<std::uint32_t>(reference[i])) {
      continue;
    }
    c.bad_steps.push_back(i);
    if (c.ok) {
      c.ok = false;
      std::ostringstream os;
      os.precision(9);
      os << "step " << i << ": " << losses[i] << " vs reference "
         << reference[i];
      c.detail = os.str();
    }
  }
  return c;
}

}  // namespace vela_bench
