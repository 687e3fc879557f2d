// The projection window and the FlowSketch fold over it. A window singleton
// stores no payload, so every emitted (mean, count, z) and every checkpoint
// byte must still equal what a histogram that stores every (x·r, r) payload
// yields: the reference here is such a "twin" histogram, fed payloads the
// test materializes itself from ProjectionSource::value, and folded
// oldest-first the plain way.
#include "sketch/projection_window.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "sketch/flow_sketch.hpp"
#include "sketch/projection_batch.hpp"

namespace spca {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

ProjectionSource make_source(ProjectionKind kind, std::uint64_t window) {
  return kind == ProjectionKind::kVerySparse
             ? ProjectionSource::very_sparse(19, window)
             : ProjectionSource(kind, 19, 3.0);
}

std::vector<double> materialized_payload(const ProjectionSource& source,
                                         std::int64_t t, double x,
                                         std::size_t l) {
  std::vector<double> payload(2 * l);
  for (std::size_t k = 0; k < l; ++k) {
    const double r = source.value(t, k);
    payload[k] = x * r;
    payload[l + k] = r;
  }
  return payload;
}

struct Emitted {
  double mean = 0.0;
  std::uint64_t count = 0;
  std::vector<double> z;
};

/// Eq. (17) from a plain oldest-first fold of buckets that all carry their
/// payloads.
Emitted reference_emit(const VarianceHistogram& twin, std::size_t l) {
  VhBucket all;
  all.payload.assign(2 * l, 0.0);
  for (auto it = twin.buckets().rbegin(); it != twin.buckets().rend(); ++it) {
    const VhBucket& b = *it;
    if (all.count == 0) {
      all.count = b.count;
      all.mean = b.mean;
    } else {
      const double na = static_cast<double>(all.count);
      const double nb = static_cast<double>(b.count);
      all.mean = (na * all.mean + nb * b.mean) / (na + nb);
      all.count += b.count;
    }
    for (std::size_t k = 0; k < 2 * l; ++k) all.payload[k] += b.payload[k];
  }
  Emitted out{all.mean, all.count, std::vector<double>(l, 0.0)};
  if (all.count == 0) return {};
  const double inv_sqrt_l = 1.0 / std::sqrt(static_cast<double>(l));
  for (std::size_t k = 0; k < l; ++k) {
    out.z[k] = inv_sqrt_l * (all.payload[k] - all.mean * all.payload[l + k]);
  }
  return out;
}

/// The checkpoint bytes of a histogram that stores every payload, which
/// FlowSketch::save_state must reproduce (the SPCA/SPCN/SPCM formats).
void write_twin(ByteWriter& out, const VarianceHistogram& twin) {
  out.put(twin.now());
  out.put(static_cast<std::uint64_t>(twin.buckets().size()));
  for (const VhBucket& b : twin.buckets()) {
    out.put(b.timestamp);
    out.put(b.count);
    out.put(b.mean);
    out.put(b.variance);
    out.put_all(b.payload);
  }
}

struct Case {
  ProjectionKind kind;
  std::uint64_t window;
  double epsilon;
  std::size_t rows;
  std::size_t block;  // 0 = add() per interval, else add_batch blocks
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string kind(to_string(c.kind));
  for (char& ch : kind) {
    if (ch == '-') ch = '_';
  }
  return kind + "_n" + std::to_string(c.window) + "_eps" +
         std::to_string(static_cast<int>(c.epsilon * 100)) + "_l" +
         std::to_string(c.rows) + "_block" + std::to_string(c.block);
}

/// An owner of a few flows, shadowed flow by flow by full-payload twins.
class Owner {
 public:
  static constexpr std::size_t kFlows = 3;

  explicit Owner(const Case& c)
      : c_(c),
        source_(make_source(c.kind, c.window)),
        window_(source_, c.rows, c.window, c.epsilon),
        sketches_(kFlows, FlowSketch(window_)) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      twins_.emplace_back(c.window, c.epsilon, 2 * c.rows);
    }
  }

  /// Feeds the intervals `times` (strictly increasing) through the
  /// owner's path: add() per interval, or whole blocks of add_batch.
  void feed(const std::vector<std::int64_t>& times, Xoshiro256& gen) {
    std::vector<std::vector<SketchUpdate>> columns(kFlows);
    for (const std::int64_t t : times) {
      for (std::size_t f = 0; f < kFlows; ++f) {
        // Irregular volumes with exact zeros, so merges vary by flow.
        const double x =
            (gen() % 13 == 0)
                ? 0.0
                : 1e6 * static_cast<double>(f + 1) +
                      2e5 * standard_normal(gen);
        twins_[f].add(t, x, materialized_payload(source_, t, x, c_.rows));
        columns[f].push_back({t, x});
      }
    }
    const std::size_t block = c_.block == 0 ? 1 : c_.block;
    window_.reserve_block(block);
    for (std::size_t lo = 0; lo < times.size(); lo += block) {
      const std::size_t n = std::min(block, times.size() - lo);
      for (std::size_t i = lo; i < lo + n; ++i) window_.advance(times[i]);
      for (std::size_t f = 0; f < kFlows; ++f) {
        if (c_.block == 0) {
          sketches_[f].add(columns[f][lo].t, columns[f][lo].volume, window_);
        } else {
          sketches_[f].add_batch(
              std::span<const SketchUpdate>(columns[f].data() + lo, n),
              window_);
        }
      }
    }
  }

  /// Every flow's emission equals the twin's plain fold bit for bit, and
  /// every bucket equals the twin's (payload-carrying ones word for word).
  void expect_matches_twins() const {
    for (std::size_t f = 0; f < kFlows; ++f) {
      const auto& got = sketches_[f].histogram().buckets();
      const auto& want = twins_[f].buckets();
      ASSERT_EQ(got.size(), want.size()) << "flow " << f;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].timestamp, want[i].timestamp);
        ASSERT_EQ(got[i].count, want[i].count);
        ASSERT_TRUE(same_bits(got[i].mean, want[i].mean));
        ASSERT_TRUE(same_bits(got[i].variance, want[i].variance));
        // The newest R buckets are window singletons without a payload.
        ASSERT_EQ(got[i].payload.empty(), i < window_.span())
            << "bucket " << i;
        for (std::size_t k = 0; k < got[i].payload.size(); ++k) {
          ASSERT_TRUE(same_bits(got[i].payload[k], want[i].payload[k]));
        }
      }
      Vector z;
      const FlowSketch::Report report = sketches_[f].report_into(z, window_);
      const Emitted ref = reference_emit(twins_[f], c_.rows);
      ASSERT_TRUE(same_bits(report.mean, ref.mean)) << "flow " << f;
      ASSERT_EQ(report.count, ref.count);
      ASSERT_EQ(z.size(), c_.rows);
      for (std::size_t k = 0; k < c_.rows; ++k) {
        ASSERT_TRUE(same_bits(z[k], ref.count == 0 ? 0.0 : ref.z[k]))
            << "flow " << f << " k=" << k;
      }
    }
  }

  [[nodiscard]] std::vector<std::byte> save() const {
    ByteWriter out;
    for (const FlowSketch& s : sketches_) s.save_state(out, window_);
    return std::move(out).take();
  }

  [[nodiscard]] std::vector<std::byte> twin_bytes() const {
    ByteWriter out;
    for (const VarianceHistogram& twin : twins_) write_twin(out, twin);
    return std::move(out).take();
  }

  /// Replaces the sketches and the window with ones restored from `blob`.
  void restore(const std::vector<std::byte>& blob) {
    window_ = ProjectionWindow(source_, c_.rows, c_.window, c_.epsilon);
    ByteReader in(blob);
    sketches_ = FlowSketch::restore_states(in, kFlows, window_);
    ASSERT_TRUE(in.exhausted());
  }

 private:
  Case c_;
  ProjectionSource source_;
  ProjectionWindow window_;
  std::vector<FlowSketch> sketches_;
  std::vector<VarianceHistogram> twins_;
};

/// Interval stamps with gaps: mostly consecutive, sometimes skipping a few,
/// once jumping past the whole window (everything expires).
std::vector<std::int64_t> stamps(std::int64_t first, std::size_t count,
                                 std::uint64_t window, Xoshiro256& gen) {
  std::vector<std::int64_t> times;
  std::int64_t t = first;
  for (std::size_t i = 0; i < count; ++i) {
    times.push_back(t);
    const std::uint64_t roll = gen() % 100;
    t += roll < 85 ? 1 : roll < 99 ? 2 + static_cast<std::int64_t>(roll % 3)
                                   : static_cast<std::int64_t>(window) + 5;
  }
  return times;
}

class WindowFoldTest : public ::testing::TestWithParam<Case> {};

TEST_P(WindowFoldTest, EmissionAndCheckpointEqualFullPayloadFold) {
  const Case c = GetParam();
  Owner owner(c);
  Xoshiro256 gen(c.window * 31 + c.rows);
  const std::size_t total = 3 * c.window + 50;
  const std::vector<std::int64_t> times = stamps(0, total, c.window, gen);
  // Feed in slices so emission is checked at many points of the stream.
  const std::size_t slice = std::max<std::size_t>(c.window / 3, 1);
  for (std::size_t lo = 0; lo < times.size(); lo += slice) {
    const std::size_t hi = std::min(times.size(), lo + slice);
    owner.feed(std::vector<std::int64_t>(times.begin() + lo,
                                         times.begin() + hi),
               gen);
    owner.expect_matches_twins();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Checkpoint bytes are those of a sketch that stores every payload.
  EXPECT_EQ(owner.save(), owner.twin_bytes());
}

TEST_P(WindowFoldTest, SaveRestoreContinueEqualsUninterruptedRun) {
  const Case c = GetParam();
  Owner live(c);
  Owner restarted(c);
  Xoshiro256 gen_live(c.window + 7);
  Xoshiro256 gen_restarted(c.window + 7);
  Xoshiro256 gaps(c.window + 8);
  const std::vector<std::int64_t> times =
      stamps(5, 2 * c.window + 30, c.window, gaps);
  const auto cut = static_cast<std::ptrdiff_t>(times.size() / 2 + 3);
  const std::vector<std::int64_t> head(times.begin(), times.begin() + cut);
  const std::vector<std::int64_t> tail(times.begin() + cut, times.end());
  live.feed(head, gen_live);
  restarted.feed(head, gen_restarted);
  const std::vector<std::byte> blob = restarted.save();
  restarted.restore(blob);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(restarted.save(), blob);
  live.feed(tail, gen_live);
  restarted.feed(tail, gen_restarted);
  restarted.expect_matches_twins();
  EXPECT_EQ(restarted.save(), live.save());
}

TEST_P(WindowFoldTest, PokedWindowSingletonPayloadIsRejected) {
  const Case c = GetParam();
  Owner owner(c);
  Xoshiro256 gen(c.window + 9);
  std::vector<std::int64_t> times;
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(c.window + 3); ++t) {
    times.push_back(t);
  }
  owner.feed(times, gen);
  const std::vector<std::byte> blob = owner.save();
  // Sketch 0, newest bucket (a window singleton): i64 now | u64 count |
  // i64 timestamp | u64 count | f64 mean | f64 variance | u64 length, then
  // Z_1 at byte 56 and R_1 at byte 56 + 8l.
  for (const std::size_t offset : {std::size_t{56}, 56 + 8 * c.rows}) {
    std::vector<std::byte> poked = blob;
    poked[offset] ^= std::byte{0x01};
    ByteReader in(poked);
    ProjectionWindow fresh(make_source(c.kind, c.window), c.rows, c.window,
                           c.epsilon);
    EXPECT_THROW((void)FlowSketch::restore_states(in, Owner::kFlows, fresh),
                 ProtocolError)
        << "offset " << offset;
  }
}

constexpr ProjectionKind kAllKinds[] = {
    ProjectionKind::kGaussian, ProjectionKind::kTugOfWar,
    ProjectionKind::kSparse, ProjectionKind::kVerySparse};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const ProjectionKind kind : kAllKinds) {
    for (const std::size_t block : {0u, 1u, 8u, 64u}) {
      // eps = 0.01, n = 300: never merges, R = n.
      cases.push_back({kind, 300, 0.01, 12, block});
      // eps = 0.5, n = 256: merges, R = 40 < n.
      cases.push_back({kind, 256, 0.5, 12, block});
    }
  }
  // The flat-week shape: eps = 0.01 never merges below n = 4004, and
  // R = 2000 < n = 2016, so the oldest 16 singletons carry payloads.
  cases.push_back({ProjectionKind::kTugOfWar, 2016, 0.01, 4, 64});
  cases.push_back({ProjectionKind::kGaussian, 2016, 0.01, 4, 0});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(KindsSpansBlocks, WindowFoldTest,
                         ::testing::ValuesIn(all_cases()), case_name);

TEST(WindowFold, TugOfWarScalarAndAvx2KernelsFoldIdentically) {
  // The window fills tug-of-war rows with the dispatched kernel; both
  // kernels must give the same sketches, checkpoints and emissions.
  for (const bool force_scalar : {true, false}) {
    if (!force_scalar && !cpu_supports_avx2()) continue;
    force_scalar_projection_kernel(force_scalar);
    for (const std::size_t block : {1u, 8u, 64u}) {
      Owner owner({ProjectionKind::kTugOfWar, 256, 0.5, 13, block});
      Xoshiro256 gen(block);
      Xoshiro256 gaps(block + 1);
      owner.feed(stamps(0, 700, 256, gaps), gen);
      owner.expect_matches_twins();
      EXPECT_EQ(owner.save(), owner.twin_bytes());
    }
  }
  force_scalar_projection_kernel(false);
}

TEST(ProjectionWindow, SpanIsTheSmallestSuffixRule2LetsMerge) {
  EXPECT_EQ(ProjectionWindow::span_for(2016, 0.01), 2000u);
  EXPECT_EQ(ProjectionWindow::span_for(288, 0.01), 288u);
  EXPECT_EQ(ProjectionWindow::span_for(65536, 0.5), 40u);
  EXPECT_EQ(ProjectionWindow::span_for(4096, 0.1), 200u);
  for (const double eps : {0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7}) {
    const std::size_t s = ProjectionWindow::span_for(1u << 20, eps);
    EXPECT_GE((eps / 10.0) * static_cast<double>(s), 2.0) << eps;
    EXPECT_LT((eps / 10.0) * static_cast<double>(s - 1), 2.0) << eps;
  }
}

TEST(ProjectionWindow, RowsMatchTheSourceAcrossGapsAndGrowth) {
  const ProjectionSource source(ProjectionKind::kGaussian, 3);
  ProjectionWindow window(source, 5, 64, 0.5);  // R = 40, capacity 41
  std::vector<std::int64_t> held;
  for (std::int64_t t = 0; t < 200; t += (t % 7 == 0) ? 3 : 1) {
    window.advance(t);
    held.push_back(t);
    if (held.size() == 60) window.reserve_block(16);  // 56 rows, keeps all
  }
  const std::size_t capacity = 40 + 16;
  for (std::size_t i = 0; i < held.size(); ++i) {
    const double* row = window.row(held[i]);
    if (i + capacity < held.size()) {
      EXPECT_EQ(row, nullptr) << held[i];
      continue;
    }
    ASSERT_NE(row, nullptr) << held[i];
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_TRUE(same_bits(row[k], source.value(held[i], k)));
    }
  }
  EXPECT_EQ(window.row(197), nullptr);  // skipped by a gap (196 -> 199)
  EXPECT_EQ(window.row(999), nullptr);  // not yet advanced
  EXPECT_THROW(window.advance(held.back()), ContractViolation);
  EXPECT_EQ(window.memory_bytes(),
            capacity * (5 * sizeof(double) + sizeof(std::int64_t)));
}

TEST(ProjectionWindow, SketchRequiresItsRow) {
  const ProjectionSource source(ProjectionKind::kTugOfWar, 3);
  ProjectionWindow window(source, 4, 64, 0.5);
  FlowSketch sketch(window);
  EXPECT_THROW(sketch.add(0, 1.0, window), ContractViolation);
  window.advance(0);
  sketch.add(0, 1.0, window);
  EXPECT_EQ(sketch.count(), 1u);
  // A window singleton holds no payload bytes.
  EXPECT_EQ(sketch.memory_bytes(),
            sizeof(VarianceHistogram) + sizeof(VhBucket));
}

}  // namespace
}  // namespace spca
