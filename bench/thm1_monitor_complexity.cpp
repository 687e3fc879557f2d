// Theorem 1 / Lemma 1 accounting: local-monitor costs as the window n and
// the VH epsilon vary — bucket counts (O((1/eps) log n) once n is past the
// ~20/eps compaction threshold), summary bytes (the sketch's own buckets,
// with the projection window it shares with its owner's other flows in a
// column of its own), per-update latency, and the variance approximation
// ratio V-hat / V. Exits 1 if any row breaks Lemma 1 (V-hat >= (1-eps) V).
#include <iostream>

#include "bench/support/scenario.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "par/thread_pool.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "sketch/flow_sketch.hpp"
#include "stream/sliding_window.hpp"

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags(
      "thm1_monitor_complexity: VH bucket growth, memory, update latency, "
      "and the Lemma 1 variance approximation");
  flags.define("sketch-rows", "16", "sketch length l carried by the VH");
  flags.define("eps-list", "0.5,0.2,0.1,0.05", "VH epsilons to sweep");
  flags.define("n-list", "1024,4096,16384,65536", "window lengths to sweep");
  flags.define("threads-list", "1,2,4",
               "pool sizes for the monitor-scale interval-close sweep");
  flags.define("flows", "256",
               "flows per monitor in the interval-close sweep (w)");
  try {
    if (!flags.parse(argc, argv)) return 0;
    const auto l = static_cast<std::size_t>(flags.integer("sketch-rows"));
    const auto n_values = bench::parse_size_list(flags.str("n-list"));

    std::vector<double> eps_values;
    {
      const std::string text = flags.str("eps-list");
      std::size_t start = 0;
      while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string token = text.substr(
            start,
            comma == std::string::npos ? std::string::npos : comma - start);
        if (!token.empty()) eps_values.push_back(std::stod(token));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }

    std::cout << "# Theorem 1 — local monitor complexity accounting (l = "
              << l << ")\n";
    TablePrinter table({"eps", "n", "buckets", "buckets/log2(n)",
                        "summary_KiB", "window_KiB", "exact_KiB",
                        "update_us", "vhat/v_min"});
    bool lemma1_holds = true;
    for (const double eps : eps_values) {
      for (const std::size_t n : n_values) {
        const ProjectionSource source(ProjectionKind::kTugOfWar, 7);
        ProjectionWindow window(source, l, n, eps);
        FlowSketch sketch(window);
        SlidingWindowStats exact(n);
        Xoshiro256 gen(n ^ 55);
        double worst_ratio = 1.0;
        Stopwatch watch;
        const std::size_t steps = 2 * n;
        for (std::size_t t = 0; t < steps; ++t) {
          const double x = 1e8 + 1e7 * standard_normal(gen);
          window.advance(static_cast<std::int64_t>(t));
          sketch.add(static_cast<std::int64_t>(t), x, window);
          exact.add(x);
          if (t >= n && t % 97 == 0) {
            const double v = exact.sum_squared_deviations();
            if (v > 0.0) {
              worst_ratio =
                  std::min(worst_ratio, sketch.variance_estimate() / v);
            }
          }
        }
        const double update_us = watch.microseconds() / steps;
        if (worst_ratio < 1.0 - eps) lemma1_holds = false;
        table.row(
            {std::to_string(eps), std::to_string(n),
             std::to_string(sketch.bucket_count()),
             std::to_string(static_cast<double>(sketch.bucket_count()) /
                            std::log2(static_cast<double>(n))),
             std::to_string(sketch.memory_bytes() / 1024.0),
             std::to_string(window.memory_bytes() / 1024.0),
             std::to_string(n * sizeof(double) / 1024.0),
             std::to_string(update_us), std::to_string(worst_ratio)});
      }
    }
    table.print(std::cout);
    std::cout << "\n# Lemma 1 requires vhat/v_min >= 1 - eps for every row "
                 "above: "
              << (lemma1_holds ? "holds" : "VIOLATED") << ".\n";

    // Monitor-scale interval close: w per-flow updates fanned out across
    // the pool, as LocalMonitor::end_interval does. The speedup column is
    // relative to the threads=1 row (bit-identical output by construction).
    const auto flows = static_cast<std::size_t>(flags.integer("flows"));
    const auto thread_values =
        bench::parse_size_list(flags.str("threads-list"));
    std::cout << "\n# Monitor interval close at w = " << flows
              << " flows (l = " << l << ", n = 4096)\n";
    TablePrinter par_table(
        {"threads", "interval_us", "updates_per_sec", "speedup"});
    const std::size_t saved_threads = global_threads();
    double serial_us = 0.0;
    for (const std::size_t threads : thread_values) {
      set_global_threads(threads);
      const ProjectionSource source(ProjectionKind::kTugOfWar, 7);
      ProjectionWindow window(source, l, 4096, 0.1);
      std::vector<FlowSketch> bank(flows, FlowSketch(window));
      Xoshiro256 gen(91);
      Vector volumes(flows);
      for (std::size_t i = 0; i < flows; ++i) {
        volumes[i] = 1e8 + 1e7 * standard_normal(gen);
      }
      constexpr std::size_t kIntervals = 512;
      Stopwatch watch;
      for (std::size_t t = 0; t < kIntervals; ++t) {
        window.advance(static_cast<std::int64_t>(t));
        global_pool().parallel_for(
            0, flows, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                bank[i].add(static_cast<std::int64_t>(t), volumes[i],
                            window);
              }
            });
      }
      const double interval_us = watch.microseconds() / kIntervals;
      if (serial_us == 0.0) serial_us = interval_us;
      par_table.row({std::to_string(threads), std::to_string(interval_us),
                     std::to_string(1e6 * static_cast<double>(flows) /
                                    interval_us),
                     std::to_string(serial_us / interval_us)});
    }
    set_global_threads(saved_threads);
    par_table.print(std::cout);
    if (!lemma1_holds) {
      std::cerr << "error: Lemma 1 violated: vhat/v_min < 1 - eps\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
