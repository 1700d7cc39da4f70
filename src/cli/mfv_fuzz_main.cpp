// mfv-fuzz: differential fuzzing driver.
//
//   mfv-fuzz --seed-range 0:500            sweep seeds through all oracles
//   mfv-fuzz --seed 17 --oracle engines    one seed, one oracle family
//   mfv-fuzz --replay repro.json           re-run a saved repro
//
// Every divergence is delta-debugged down to a minimal case and written
// to --out as a self-contained JSON repro; the exit code is nonzero iff
// any oracle disagreed. --time-budget-sec bounds a sweep for CI smoke
// runs (seeds simply stop early; exit code still reflects failures).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/oracles.hpp"

namespace {

struct Options {
  uint64_t seed_begin = 0;
  uint64_t seed_end = 100;  // exclusive
  uint32_t oracle_mask = mfv::fuzz::kOracleAll;
  std::string out_dir = "fuzz_out";
  std::optional<std::string> replay_file;
  double time_budget_sec = 0;  // 0 = unbounded
  bool minimize = true;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed-range A:B | --seed N] [--oracle "
               "engines|fork|store|dialect|sharded|explore|fib|all]\n"
               "          [--out DIR] [--time-budget-sec S] [--no-minimize] "
               "[--replay FILE]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seed-range") {
      const char* text = value();
      if (text == nullptr) return false;
      uint64_t begin = 0, end = 0;
      if (std::sscanf(text, "%llu:%llu", (unsigned long long*)&begin,
                      (unsigned long long*)&end) != 2 ||
          end <= begin)
        return false;
      options.seed_begin = begin;
      options.seed_end = end;
    } else if (arg == "--seed") {
      const char* text = value();
      if (text == nullptr) return false;
      options.seed_begin = std::strtoull(text, nullptr, 10);
      options.seed_end = options.seed_begin + 1;
    } else if (arg == "--oracle") {
      const char* text = value();
      if (text == nullptr) return false;
      auto mask = mfv::fuzz::parse_oracle(text);
      if (!mask) return false;
      options.oracle_mask = *mask;
    } else if (arg == "--out") {
      const char* text = value();
      if (text == nullptr) return false;
      options.out_dir = text;
    } else if (arg == "--time-budget-sec") {
      const char* text = value();
      if (text == nullptr) return false;
      options.time_budget_sec = std::strtod(text, nullptr);
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--replay") {
      const char* text = value();
      if (text == nullptr) return false;
      options.replay_file = text;
    } else {
      return false;
    }
  }
  return true;
}

int replay(const Options& options) {
  std::ifstream in(*options.replay_file);
  if (!in) {
    std::fprintf(stderr, "mfv-fuzz: cannot read %s\n", options.replay_file->c_str());
    return 2;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto loaded = mfv::fuzz::FuzzCase::from_json_text(text);
  if (!loaded.ok()) {
    std::fprintf(stderr, "mfv-fuzz: %s: %s\n", options.replay_file->c_str(),
                 loaded.status().message().c_str());
    return 2;
  }
  int failures = 0;
  for (const mfv::fuzz::Verdict& verdict :
       mfv::fuzz::run_oracles(loaded.value(), options.oracle_mask)) {
    std::printf("  %-8s %s%s%s\n", mfv::fuzz::oracle_name(verdict.oracle).c_str(),
                verdict.ok ? "ok" : "FAIL", verdict.detail.empty() ? "" : ": ",
                verdict.detail.c_str());
    failures += verdict.ok ? 0 : 1;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return usage(argv[0]);
  if (options.replay_file) return replay(options);

  const auto started = std::chrono::steady_clock::now();
  auto elapsed_sec = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
        .count();
  };

  uint64_t executed = 0;
  int failures = 0;
  bool out_dir_ready = false;
  for (uint64_t seed = options.seed_begin; seed < options.seed_end; ++seed) {
    if (options.time_budget_sec > 0 && elapsed_sec() >= options.time_budget_sec) {
      std::printf("time budget reached after seed %llu\n",
                  (unsigned long long)(seed - 1));
      break;
    }
    mfv::fuzz::FuzzCase c = mfv::fuzz::generate_case(seed);
    ++executed;
    std::optional<mfv::fuzz::Verdict> failure =
        mfv::fuzz::first_failure(c, options.oracle_mask);
    if (!failure) continue;

    ++failures;
    std::printf("seed %llu (%s): %s FAILED: %s\n", (unsigned long long)seed,
                mfv::fuzz::mode_name(c.mode).c_str(),
                mfv::fuzz::oracle_name(failure->oracle).c_str(),
                failure->detail.c_str());
    if (options.minimize) {
      mfv::fuzz::MinimizeStats stats;
      c = mfv::fuzz::minimize_for_oracle(c, failure->oracle, &stats);
      std::printf("  minimized in %zu attempts (%zu reductions kept)\n",
                  stats.attempts, stats.accepted);
      if (auto minimized_failure = mfv::fuzz::first_failure(c, failure->oracle))
        failure = minimized_failure;  // repro carries the minimized detail
    }
    if (!out_dir_ready) {
      std::error_code ec;
      std::filesystem::create_directories(options.out_dir, ec);
      out_dir_ready = true;
    }
    std::string path = options.out_dir + "/repro-" +
                       mfv::fuzz::oracle_name(failure->oracle) + "-seed" +
                       std::to_string(seed) + ".json";
    std::ofstream out(path);
    out << c.to_json().dump(2) << "\n";
    std::printf("  repro written to %s\n", path.c_str());
  }

  double seconds = elapsed_sec();
  std::printf("%llu case(s) in %.1fs (%.1f cases/sec), %d failure(s)\n",
              (unsigned long long)executed, seconds,
              seconds > 0 ? executed / seconds : 0.0, failures);
  return failures > 0 ? 1 : 0;
}
