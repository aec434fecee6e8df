// kgwas_perfbench: one workload of the end-to-end KRR GWAS benchmark.
//
//   kgwas_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones (median over the passes of the run);
// with --trace 1 they are the per-layer ones of the traced run.
#include <sys/resource.h>

#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

// Set-up is repeated for at least this long (and at least kSetupRepeats
// times) and its median reported, so a change that moves work into
// set-up shows against a steady figure.
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have[3] = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  for (const bool h : have) {
    if (!h) {
      throw std::invalid_argument(
          "usage: kgwas_perfbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1>");
    }
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (tally.correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Workload* workload = nullptr;
  try {
    args = parse_args(argc, argv);
    workload = &find_workload(args.workload);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<double> setup;
  Inputs in;
  const double setup_start = now_s();
  while (setup.size() < kSetupRepeats ||
         now_s() - setup_start < kSetupSeconds) {
    const double t0 = now_s();
    in = make_inputs(*workload, args.seed);
    setup.push_back(now_s() - t0);
  }
  std::cerr << workload->name << ": " << in.split.train.patients()
            << " train x " << in.split.test.patients() << " test patients, "
            << in.split.train.snps() << " SNPs, gamma " << in.build.gamma
            << ", set-up " << median(setup) << " s\n";

  Metrics metrics;
  Tally tally;
  if (args.trace) {
    run_traced(*workload, in, args.seconds, metrics, tally);
  } else {
    run_plain(*workload, in, args.seconds, metrics, tally);
    metrics["setup_s"] = {median(setup), "s"};
    metrics["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  }
  print_result(tally, metrics);
  return 0;
}
