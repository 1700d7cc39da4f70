// Self-tests of the summary code: percentile guards, self-time overlap
// handling and failed-op accounting. Run by `perfbench --selftest` and at
// the start of every run.
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
}

std::vector<double> ramp(size_t n) {
  std::vector<double> samples;
  for (size_t i = 0; i < n; ++i) samples.push_back(static_cast<double>(i));
  return samples;
}

}  // namespace

int run_selftests() {
  failures = 0;

  // Tail percentiles need ten samples beyond them.
  expect(!percentile(ramp(99), 90).has_value(), "p90 refused with 99 samples");
  expect(percentile(ramp(100), 90).has_value(), "p90 accepted with 100 samples");
  expect(!percentile(ramp(999), 99).has_value(), "p99 refused with 999 samples");
  expect(percentile(ramp(1000), 99).has_value(), "p99 accepted with 1000 samples");
  expect(percentile({7.0}, 50) == 7.0, "median of one sample");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median interpolates");
  expect(std::fabs(*percentile(ramp(101), 90) - 90.0) < 1e-9, "p90 of 0..100 is 90");

  // A parent's self time subtracts overlapping children once: children
  // [1,4] and [3,6] cover [1,6], and [9,12] is clipped to [9,10], so the
  // parent [0,10] keeps 10 - 5 - 1 = 4.
  std::vector<Span> spans = {
      {1, 0, 1, "root", 0, 10},
      {2, 1, 1, "child", 1, 4},
      {3, 1, 1, "child", 3, 6},
      {4, 1, 1, "late", 9, 12},  // clipped to the parent's end
  };
  std::map<std::string, double> self = self_time_ms(spans);
  expect(std::fabs(self["root"] - 4.0) < 1e-9, "self time counts overlapping children once");
  expect(std::fabs(self["child"] - 6.0) < 1e-9, "leaf self time is its duration");

  // A deliberately wrong answer counts as a failed op.
  Gate gate;
  mfv::verify::PairwiseResult right, wrong;
  right.cells = {{"a", "b", true}, {"b", "a", true}};
  right.reachable_pairs = right.total_pairs = 2;
  wrong = right;
  wrong.cells[1].reachable = false;
  wrong.reachable_pairs = 1;
  gate.attempt(2);
  gate.check(same_matrix(right, right), "right answer");
  gate.check(same_matrix(wrong, right), "wrong answer");
  expect(gate.attempted() == 2 && gate.failed() == 1, "wrong answer counts as one failed op");
  BootOutcome boot;
  boot.added = boot.converged = true;
  boot.pairwise = wrong;
  expect(!boot_ok(boot, 2, nullptr), "a partial mesh fails the boot gate");
  boot.pairwise = right;
  expect(boot_ok(boot, 2, nullptr), "the full mesh passes the boot gate");

  if (failures == 0) std::fprintf(stderr, "perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
