#include "stream/variance_histogram.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace spca {

VhBucket merge_buckets(const VhBucket& a, const VhBucket& b) {
  VhBucket out = a;
  merge_into(out, b);
  return out;
}

void merge_into(VhBucket& a, const VhBucket& b) {
  SPCA_EXPECTS(a.payload.size() == b.payload.size());
  if (a.count == 0) {
    a = b;
    return;
  }
  if (b.count == 0) return;

  a.timestamp = std::min(a.timestamp, b.timestamp);  // the older one
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  a.count += b.count;  // eq. (11)
  const double dmean = a.mean - b.mean;
  a.variance =
      a.variance + b.variance + na * nb / (na + nb) * dmean * dmean;  // (13)
  a.mean = (na * a.mean + nb * b.mean) / (na + nb);                   // (12)
  for (std::size_t k = 0; k < a.payload.size(); ++k) {
    a.payload[k] += b.payload[k];  // eqs. (14), (15)
  }
}

VarianceHistogram::VarianceHistogram(std::uint64_t window, double epsilon,
                                     std::size_t payload_size)
    : window_(window),
      epsilon_(epsilon),
      payload_size_(payload_size),
      // A merge needs a candidate of >= 2 elements and a suffix B with
      // (eps/10)·n_B >= the candidate's count (Rule 2), while candidate plus
      // suffix fit in floor(n/2) (Rule 3), so n_B <= floor(n/2) − 2. Both
      // sides are written as compact() evaluates them.
      never_merges_((epsilon / 10.0) *
                        (static_cast<double>(window / 2) - 2.0) <
                    2.0) {
  SPCA_EXPECTS(window >= 2);
  SPCA_EXPECTS(epsilon > 0.0 && epsilon < 1.0);
}

VarianceHistogram VarianceHistogram::from_state(std::uint64_t window,
                                                double epsilon,
                                                std::size_t payload_size,
                                                std::vector<VhBucket> buckets,
                                                std::int64_t now) {
  VarianceHistogram vh(window, epsilon, payload_size);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const VhBucket& b = buckets[i];
    const bool ordered = i == 0 ? b.timestamp <= now
                                : b.timestamp < buckets[i - 1].timestamp;
    const bool payload_ok = b.payload.size() == payload_size ||
                            (b.payload.empty() && b.count == 1);
    if (!ordered || b.count == 0 || !payload_ok) {
      throw ProtocolError("VarianceHistogram: invalid bucket list in state");
    }
  }
  vh.buckets_.assign(buckets.begin(), buckets.end());
  vh.now_ = now;
  vh.has_elements_ = !buckets.empty();
  return vh;
}

void VarianceHistogram::add(std::int64_t t, double x,
                            std::span<const double> payload) {
  SPCA_EXPECTS(payload.size() == payload_size_);
  VhBucket& fresh = push(t, x);
  fresh.payload = take_spare();
  fresh.payload.assign(payload.begin(), payload.end());
  // Step 3: traverse the list and merge qualified adjacent pairs.
  compact();
}

void VarianceHistogram::add_without_payload(std::int64_t t, double x) {
  (void)push(t, x);
  compact();
}

VhBucket& VarianceHistogram::push(std::int64_t t, double x) {
  SPCA_EXPECTS(!has_elements_ || t > now_);
  now_ = t;
  has_elements_ = true;

  // Step 1: drop the oldest bucket(s) whose time stamp left the window.
  expire(t);

  // Step 2: the new element becomes bucket B_1.
  VhBucket fresh;
  fresh.timestamp = t;
  fresh.count = 1;
  fresh.mean = x;
  fresh.variance = 0.0;
  buckets_.push_front(std::move(fresh));
  return buckets_.front();
}

std::span<double> VarianceHistogram::attach_payload(std::size_t index) {
  SPCA_EXPECTS(index < buckets_.size());
  VhBucket& bucket = buckets_[index];
  SPCA_EXPECTS(bucket.payload.empty());
  bucket.payload = take_spare();
  bucket.payload.resize(payload_size_);
  return bucket.payload;
}

std::vector<double> VarianceHistogram::take_spare() {
  if (spare_payloads_.empty()) return {};
  std::vector<double> spare = std::move(spare_payloads_.back());
  spare_payloads_.pop_back();
  return spare;
}

void VarianceHistogram::recycle(VhBucket& bucket) {
  // Bounded spare pool: enough to absorb the expire+merge churn of one add.
  if (spare_payloads_.size() < 8 && bucket.payload.capacity() > 0) {
    spare_payloads_.push_back(std::move(bucket.payload));
  }
}

void VarianceHistogram::expire(std::int64_t t) {
  while (!buckets_.empty() &&
         buckets_.back().timestamp <=
             t - static_cast<std::int64_t>(window_)) {
    recycle(buckets_.back());
    buckets_.pop_back();
  }
}

namespace {

/// Count/mean/variance triple: the part of a bucket the merge rules read.
/// Keeping the Fig. 3 traversal payload-free makes the per-element update
/// cost independent of the sketch length l — the O(l) payload merge is paid
/// only when a merge actually fires (amortized O(1) merges per element).
struct ScalarStats {
  double count = 0.0;
  double mean = 0.0;
  double variance = 0.0;
};

ScalarStats scalar_of(const VhBucket& b) noexcept {
  return {static_cast<double>(b.count), b.mean, b.variance};
}

ScalarStats scalar_merge(const ScalarStats& a, const ScalarStats& b) noexcept {
  if (a.count == 0.0) return b;
  if (b.count == 0.0) return a;
  ScalarStats out;
  out.count = a.count + b.count;
  out.mean = (a.count * a.mean + b.count * b.mean) / out.count;
  const double dmean = a.mean - b.mean;
  out.variance =
      a.variance + b.variance + a.count * b.count / out.count * dmean * dmean;
  return out;
}

}  // namespace

void VarianceHistogram::compact() {
  if (never_merges_) return;  // the walk below could not merge anything
  // Fig. 3, Step 3. `suffix` is B_B = union of buckets_[0 .. p-1] (the
  // newest p buckets); candidates for merging are buckets_[p] and
  // buckets_[p+1] (the paper's B_{p+1} and B_{p+2}).
  std::size_t p = 1;
  ScalarStats suffix = scalar_of(buckets_.front());
  while (p + 1 < buckets_.size()) {
    const ScalarStats candidate =
        scalar_merge(scalar_of(buckets_[p]), scalar_of(buckets_[p + 1]));
    // Rule 3: never let a merge candidate plus the suffix exceed n/2.
    if (candidate.count + suffix.count >
        static_cast<double>(window_ / 2)) {
      return;
    }
    const ScalarStats with_suffix = scalar_merge(candidate, suffix);
    const bool rule1 = with_suffix.variance - suffix.variance <=
                       (epsilon_ / 5.0) * suffix.variance;
    const bool rule2 =
        candidate.count <= (epsilon_ / 10.0) * suffix.count;
    if (rule1 && rule2) {
      SPCA_EXPECTS(buckets_[p].payload.size() == payload_size_ &&
                   buckets_[p + 1].payload.size() == payload_size_);
      merge_into(buckets_[p], buckets_[p + 1]);  // reuses the payload buffer
      recycle(buckets_[p + 1]);
      buckets_.erase(buckets_.begin() + static_cast<std::ptrdiff_t>(p + 1));
      ++merges_;
    } else {
      suffix = scalar_merge(suffix, scalar_of(buckets_[p]));
      ++p;
    }
  }
}

VhBucket VarianceHistogram::aggregate() const {
  VhBucket all;
  for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
    const VhBucket& b = *it;
    if (all.count == 0) {
      all.timestamp = b.timestamp;
      all.count = b.count;
      all.mean = b.mean;
      all.variance = b.variance;
    } else {
      const double na = static_cast<double>(all.count);
      const double nb = static_cast<double>(b.count);
      const double dmean = all.mean - b.mean;
      all.variance += b.variance + na * nb / (na + nb) * dmean * dmean;
      all.mean = (na * all.mean + nb * b.mean) / (na + nb);
      all.count += b.count;
      all.timestamp = std::min(all.timestamp, b.timestamp);
    }
  }
  return all;
}

double VarianceHistogram::variance_estimate() const {
  return aggregate().variance;
}

std::size_t VarianceHistogram::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  for (const auto& b : buckets_) {
    bytes += sizeof(VhBucket) + b.payload.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace spca
