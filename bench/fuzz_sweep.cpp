/// Command-line fuzz driver: run the randomized differential harness
/// (src/runner/fuzz.hpp) over a range of seeds.
///
///   fuzz_sweep [--seed S] [--runs N]
///
/// Each seed exercises four design points in three execution modes
/// with the self-checking layer attached, then the idle leg (a random
/// gated, near-idle custom SoC); a seed passes only if every mode
/// agrees bitwise and the checkers stay silent. Exits non-zero on the
/// first failing seed. CI (sanitize workflow) runs 25 seeds under
/// AddressSanitizer.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/parse_u64.hpp"
#include "runner/fuzz.hpp"

namespace {

std::uint64_t u64_arg(const char* flag, const char* value) {
  const std::optional<std::uint64_t> v = annoc::parse_u64(value);
  if (!v) {
    std::fprintf(stderr, "fuzz_sweep: bad value for %s: '%s'\n", flag, value);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 20260806;
  std::uint64_t runs = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_sweep: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = u64_arg("--seed", take("--seed"));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = u64_arg("--seed", arg.c_str() + 7);
    } else if (arg == "--runs") {
      runs = u64_arg("--runs", take("--runs"));
    } else if (arg.rfind("--runs=", 0) == 0) {
      runs = u64_arg("--runs", arg.c_str() + 7);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: fuzz_sweep [--seed S] [--runs N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "fuzz_sweep: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  std::printf("fuzz_sweep: %llu run(s) from seed %llu\n",
              static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(seed));
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t s = seed + i;
    std::string verdict = annoc::runner::fuzz_seed(s);
    if (verdict.empty()) verdict = annoc::runner::fuzz_idle_seed(s);
    if (!verdict.empty()) {
      std::printf("FAIL seed %llu: %s\n",
                  static_cast<unsigned long long>(s), verdict.c_str());
      return 1;
    }
    std::printf("PASS seed %llu\n", static_cast<unsigned long long>(s));
    std::fflush(stdout);
  }
  std::printf("fuzz_sweep: all %llu seed(s) passed\n",
              static_cast<unsigned long long>(runs));
  return 0;
}
