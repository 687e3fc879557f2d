// Theorem 1 accounting, NOC side: the twin of thm1_monitor_complexity.
// Sweeps the flow count m at a fixed sketch length l, feeds the NOC one
// sketch response per refit (an l x m sketch with a decaying spectrum,
// drifting slightly between refits as a sliding window does), and records
// the refit time and Noc::memory_bytes. Exits 1 if the NOC's bytes grow
// faster than m * l across the sweep — the paper's O(m log n) NOC space at
// l = O(log n); an m x m model or warm basis would grow as m^2.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/support/scenario.hpp"
#include "common/table.hpp"
#include "dist/noc.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace {

using namespace spca;

/// Refits per flow count; the median time is reported.
constexpr std::size_t kRefits = 9;

/// One sketch response covering every flow: [mean, count, z_1..z_l] each,
/// z = `base` plus a small per-refit drift.
Message sketch_response(std::size_t m, std::size_t l, std::uint64_t window,
                        const Matrix& base, Xoshiro256& gen) {
  Message response;
  response.type = MessageType::kSketchResponse;
  response.from = 1;
  response.to = kNocId;
  for (std::size_t j = 0; j < m; ++j) {
    response.ids.push_back(static_cast<std::uint32_t>(j));
    response.values.push_back(1e6);
    response.values.push_back(static_cast<double>(window));
    for (std::size_t k = 0; k < l; ++k) {
      response.values.push_back(base(k, j) + 1e-4 * standard_normal(gen));
    }
  }
  return response;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "thm1_noc_complexity: NOC refit time and memory as the flow count m "
      "grows at a fixed sketch length l");
  flags.define("sketch-rows", "50", "sketch length l");
  flags.define("m-list", "81,225,441,1024", "flow counts to sweep");
  try {
    if (!flags.parse(argc, argv)) return 0;
    const std::int64_t rows = flags.integer("sketch-rows");
    std::vector<std::size_t> m_values =
        bench::parse_size_list(flags.str("m-list"));
    std::sort(m_values.begin(), m_values.end());
    if (rows < 1 || m_values.empty()) {
      throw InputError("need sketch-rows >= 1 and an m-list");
    }
    const auto l = static_cast<std::size_t>(rows);

    std::cout << "# Theorem 1 — NOC refit and memory accounting (l = " << l
              << ", warm backend)\n";
    TablePrinter table({"m", "components", "refit_ms", "refit_ns/(m*l^2)",
                        "memory_KiB", "bytes/(m*l)"});
    double first_ratio = 0.0;
    bool linear = true;
    for (const std::size_t m : m_values) {
      NocConfig config;
      config.sketch_rows = l;
      Noc noc(m, config);
      Xoshiro256 gen(m);
      constexpr std::size_t kSignalRank = 8;
      Matrix left(l, kSignalRank);
      Matrix right(kSignalRank, m);
      for (std::size_t i = 0; i < l; ++i) {
        for (std::size_t j = 0; j < kSignalRank; ++j) {
          left(i, j) = standard_normal(gen) *
                       std::pow(0.6, static_cast<double>(j));
        }
      }
      for (std::size_t i = 0; i < kSignalRank; ++i) {
        for (std::size_t j = 0; j < m; ++j) right(i, j) = standard_normal(gen);
      }
      // A rank-8 signal with a decaying spectrum plus full-rank noise.
      Matrix base = multiply(left, right);
      for (std::size_t i = 0; i < l; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          base(i, j) += 0.05 * standard_normal(gen);
        }
      }
      std::vector<double> refit_ms;
      for (std::size_t r = 0; r < kRefits; ++r) {
        noc.ingest_sketch_response(
            sketch_response(m, l, config.window, base, gen));
        const auto begin = std::chrono::steady_clock::now();
        noc.refit();
        const std::chrono::duration<double, std::milli> took =
            std::chrono::steady_clock::now() - begin;
        refit_ms.push_back(took.count());
      }
      std::sort(refit_ms.begin(), refit_ms.end());
      const double median_ms = refit_ms[refit_ms.size() / 2];
      const double ml = static_cast<double>(m) * static_cast<double>(l);
      const double ratio = static_cast<double>(noc.memory_bytes()) / ml;
      if (first_ratio == 0.0) first_ratio = ratio;
      if (ratio > first_ratio) linear = false;
      const double ns_per_ml2 = median_ms * 1e6 / (ml * static_cast<double>(l));
      table.row({std::to_string(m),
                 std::to_string(noc.model()->component_count()),
                 std::to_string(median_ms), std::to_string(ns_per_ml2),
                 std::to_string(static_cast<double>(noc.memory_bytes()) /
                                1024.0),
                 std::to_string(ratio)});
    }
    table.print(std::cout);
    std::cout << "\n# NOC bytes per m*l must not grow with m: "
              << (linear ? "holds" : "VIOLATED") << ".\n";
    if (!linear) {
      std::cerr << "error: NOC memory grows faster than m * l\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
