// Summary code shared by every workload: guarded percentiles, the span
// tracer of the traced run with per-layer self time, the correctness gate
// that feeds the failed-op count, and the metric table printed as the
// result line. Self-tested by `perfbench --selftest` (selftest.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Samples a tail percentile needs: at least ten must lie beyond it, so
/// p90 needs 100 samples and p99 needs 1000. The median needs one.
inline size_t min_samples_for(int percent) {
  if (percent <= 50) return 1;
  return static_cast<size_t>(1000 / (100 - percent));
}

/// The `percent`-th percentile (linear interpolation between closest
/// ranks), or nullopt when the sample is too small to support it.
inline std::optional<double> percentile(std::vector<double> samples, int percent) {
  if (percent < 0 || percent > 100 || samples.size() < min_samples_for(percent))
    return std::nullopt;
  std::sort(samples.begin(), samples.end());
  double rank = (static_cast<double>(samples.size()) - 1.0) * percent / 100.0;
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50).value_or(0.0);
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // id of the root span of the operation
  std::string name;
  double start_ms = 0;  // relative to the tracer's epoch
  double end_ms = 0;
};

/// In-memory span recorder for the traced run. A null Tracer* (the
/// end-to-end run) records nothing; Scope then only times.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// RAII span. Nested scopes on one thread parent to the innermost open
  /// scope; a root scope starts a new operation id.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name) : tracer_(tracer), start_(Clock::now()) {
      if (tracer_ == nullptr) return;
      span_.name = std::move(name);
      span_.parent = current_ == nullptr ? 0 : current_->span_.id;
      span_.op = current_ == nullptr ? 0 : current_->span_.op;
      span_.start_ms = tracer_->offset_ms(start_);
      std::lock_guard<std::mutex> lock(tracer_->mutex_);
      span_.id = ++tracer_->next_id_;
      if (span_.op == 0) span_.op = span_.id;
      outer_ = current_;
      current_ = this;
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its duration in ms.
    double close() {
      if (!closed_) {
        closed_ = true;
        Clock::time_point end = Clock::now();
        duration_ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
        if (tracer_ != nullptr) {
          current_ = outer_;
          span_.end_ms = tracer_->offset_ms(end);
          std::lock_guard<std::mutex> lock(tracer_->mutex_);
          tracer_->spans_.push_back(std::move(span_));
        }
      }
      return duration_ms_;
    }

   private:
    static inline thread_local Scope* current_ = nullptr;
    Tracer* tracer_;
    Clock::time_point start_;
    Span span_;
    Scope* outer_ = nullptr;
    bool closed_ = false;
    double duration_ms_ = 0;
  };

  double offset_ms(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - epoch_).count();
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  mfv::util::Json to_json() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children, overlapping children counted once.
std::map<std::string, double> self_time_ms(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Correctness gate and result

/// Counts attempted and failed operations. A check that fails marks its
/// operation failed; work counts are reported elsewhere and never gated.
class Gate {
 public:
  void attempt(size_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
  }
  /// Records one checked outcome; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (ok) return true;
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(what);
    return false;
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::mutex mutex_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics of one run, in insertion-independent (sorted) order.
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
