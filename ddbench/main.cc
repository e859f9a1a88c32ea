// ddbench: the repository benchmark (LEDGER.md).
//
//   ddbench --workload <pi2_infer|stable_neg|serve_mix> --seed N
//           --seconds S --trace <0|1> [--trace-out FILE]
//   ddbench --selfcheck
//
// --trace 0 runs the workload untraced for S seconds and reports the
// end-to-end metrics. --trace 1 runs it untraced and then traced, S/2
// seconds each, and reports the per-layer ledger of the traced half plus
// the tracing overhead and the serve-only timings of the untraced half.
// Every verdict is audited outside the timed region; a wrong one makes
// the run fail (exit 1, "correct": false). The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --selfcheck runs every workload twice on a fixed seed and request count
// with tracing on, and fails unless the work counters repeat exactly.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "workload.h"

namespace ddbench {

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Nearest-rank percentile of `v` (p in (0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly above the nearest-rank percentile's position.
size_t Beyond(size_t n, double p) {
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return n > rank ? n - rank : 0;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Answered(const Outcome& o) {
  return static_cast<double>(o.attempted - o.failed);
}

double Throughput(const Outcome& o) {
  return o.timed_s > 0 ? Answered(o) / o.timed_s : 0;
}

Outcome Run(const std::string& workload, const RunConfig& cfg) {
  if (workload == "pi2_infer") return RunPi2Infer(cfg);
  if (workload == "stable_neg") return RunStableNeg(cfg);
  return RunServeMix(cfg);
}

/// Human-readable report of the untraced run: every timing with its
/// percentile and sample count.
void PrintEndToEnd(const Outcome& o) {
  const size_t n = o.latency_ms.size();
  std::printf("setup_s          %12.6f s     median of %zu set-ups\n",
              Percentile(o.setup_s, 50), o.setup_s.size());
  std::printf("throughput_qps   %12.3f 1/s   %.0f answered in %.3f s\n",
              Throughput(o), Answered(o), o.timed_s);
  std::printf("latency_p50_ms   %12.4f ms    p50 of %zu requests\n",
              Percentile(o.latency_ms, 50), n);
  std::printf("latency_p99_ms   %12.4f ms    p99 of %zu requests, %zu beyond\n",
              Percentile(o.latency_ms, 99), n, Beyond(n, 99));
  const size_t nt = o.template_ms.size();
  std::printf("template_p50_ms  %12.4f ms    p50 of %zu ANSWERS requests\n",
              Percentile(o.template_ms, 50), nt);
  std::printf(
      "template_p90_ms  %12.4f ms    p90 of %zu ANSWERS requests, %zu beyond\n",
      Percentile(o.template_ms, 90), nt, Beyond(nt, 90));
  std::printf("reload_p50_ms    %12.4f ms    p50 of %zu writes\n",
              Percentile(o.reload_ms, 50), o.reload_ms.size());
  std::printf("failed_share     %12.6f       %lld of %lld attempted\n",
              o.attempted > 0 ? static_cast<double>(o.failed) / o.attempted : 0,
              static_cast<long long>(o.failed),
              static_cast<long long>(o.attempted));
  std::printf("audit            %lld verdicts checked, %lld wrong\n",
              static_cast<long long>(o.audited),
              static_cast<long long>(o.wrong));
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string s = correct ? "{\"correct\": true" : "{\"correct\": false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Units of the per-layer metrics (LEDGER.md states each base).
std::string LayerUnit(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_ratio") || ends_with("_share") ||
      name == "obs.trace_overhead") {
    return "ratio";
  }
  return "count";
}

int RunWorkload(const std::string& workload, uint64_t seed, double seconds,
                bool trace, const std::string& trace_out) {
  RunConfig cfg;
  cfg.seed = seed;
  std::printf("ddbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::vector<Metric> metrics;
  if (!trace) {
    cfg.seconds = seconds;
    const Outcome o = Run(workload, cfg);
    PrintEndToEnd(o);
    const double rss = PeakRssMb();
    std::printf("peak_rss_mb      %12.3f MB\n", rss);
    metrics = {{"setup_s", Percentile(o.setup_s, 50), "s"},
               {"throughput_qps", Throughput(o), "1/s"},
               {"latency_p50_ms", Percentile(o.latency_ms, 50), "ms"},
               {"latency_p99_ms", Percentile(o.latency_ms, 99), "ms"},
               {"peak_rss_mb", rss, "MB"}};
    PrintJson(o.wrong == 0, o.attempted, o.failed, metrics);
    return o.wrong == 0 ? 0 : 1;
  }

  cfg.seconds = seconds / 2;
  const Outcome plain = Run(workload, cfg);
  std::printf("-- untraced half\n");
  PrintEndToEnd(plain);
  cfg.traced = true;
  const Outcome traced = Run(workload, cfg);
  std::printf("-- traced half\n");
  PrintEndToEnd(traced);

  std::map<std::string, double> layer = LayerMetrics(traced.ledger);
  layer["obs.trace_overhead"] =
      Throughput(traced) > 0 ? Throughput(plain) / Throughput(traced) : 0;
  layer["template_p50_ms"] = Percentile(plain.template_ms, 50);
  layer["template_p90_ms"] = Percentile(plain.template_ms, 90);
  layer["reload_p50_ms"] = Percentile(plain.reload_ms, 50);
  layer["failed_share"] =
      plain.attempted > 0
          ? static_cast<double>(plain.failed) / plain.attempted
          : 0;
  for (const auto& [name, value] : layer) {
    std::printf("%-30s %14.6f %s\n", name.c_str(), value,
                LayerUnit(name).c_str());
    metrics.push_back({name, value, LayerUnit(name)});
  }
  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    f << traced.ledger.TraceJson();
  }
  const bool correct = plain.wrong == 0 && traced.wrong == 0;
  PrintJson(correct, plain.attempted + traced.attempted,
            plain.failed + traced.failed, metrics);
  return correct ? 0 : 1;
}

/// Fixed-work traced runs repeat their work counters exactly.
int SelfCheck() {
  const std::pair<const char*, int64_t> runs[] = {
      {"pi2_infer", 120}, {"stable_neg", 120}, {"serve_mix", 8500}};
  int failures = 0;
  for (const auto& [workload, requests] : runs) {
    RunConfig cfg;
    cfg.seed = 7;
    cfg.max_requests = requests;
    cfg.setup_reps = 1;
    cfg.traced = true;
    const Outcome a = Run(workload, cfg);
    const Outcome b = Run(workload, cfg);
    const auto& ca = a.ledger.counts();
    const auto& cb = b.ledger.counts();
    int diffs = 0;
    for (const auto& [key, value] : ca) {
      auto it = cb.find(key);
      const double other = it == cb.end() ? 0 : it->second;
      if (other != value) {
        std::printf("  %s: %s differs: %.17g vs %.17g\n", workload,
                    key.c_str(), value, other);
        ++diffs;
      }
    }
    if (ca.size() != cb.size()) ++diffs;
    const bool ok = diffs == 0 && a.wrong == 0 && b.wrong == 0 &&
                    a.attempted == requests && !ca.empty();
    std::printf("selfcheck %-10s %s (%zu counters, %lld requests, "
                "%.0f sat calls, %.0f batch cache hits)\n",
                workload, ok ? "ok" : "FAILED", ca.size(),
                static_cast<long long>(a.attempted),
                a.ledger.Count("minimal.sat_calls"),
                a.ledger.Count("layer:reasoner:batch_cache_hits"));
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ddbench --workload <pi2_infer|stable_neg|serve_mix> "
               "--seed N --seconds S --trace <0|1> [--trace-out FILE]\n"
               "       ddbench --selfcheck\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selfcheck") return SelfCheck();
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else {
      return Usage();
    }
  }
  if (workload != "pi2_infer" && workload != "stable_neg" &&
      workload != "serve_mix") {
    return Usage();
  }
  if (!(seconds > 0)) return Usage();
  return RunWorkload(workload, seed, seconds, trace, trace_out);
}

}  // namespace ddbench

int main(int argc, char** argv) { return ddbench::Main(argc, argv); }
