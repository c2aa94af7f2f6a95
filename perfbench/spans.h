// In-memory span recorder for the benchmark's traced run. Spans are taken
// in the benchmark's own code around its calls into the library (parser,
// broker, server, engine, filter, segment, controller, stream, realtime),
// so the library itself carries no tracing for this purpose. Each thread
// appends to its own buffer; buffers are merged and written out once the
// run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index into the owning buffer; -1 for a root.
  int64_t query_id = -1;
  double DurationUs() const { return (end_ns - start_ns) / 1000.0; }
};

/// One thread's spans. Not shared between threads while recording.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  int64_t Begin(const char* name, int64_t query_id) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.query_id = query_id;
    span.start_ns = NowNanos();
    spans_.push_back(span);
    open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int64_t index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNanos();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a no-op when the buffer is disabled.
class Scoped {
 public:
  Scoped(SpanBuffer* buffer, const char* name, int64_t query_id = -1)
      : buffer_(buffer), index_(buffer->Begin(name, query_id)) {}
  ~Scoped() { buffer_->End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanBuffer* buffer_;
  int64_t index_;
};

/// Owns every thread's buffer for one traced run.
class SpanStore {
 public:
  explicit SpanStore(bool enabled) : enabled_(enabled) {}

  SpanBuffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<SpanBuffer>(enabled_));
    return buffers_.back().get();
  }

  /// Per span name: number of spans, total and self time. Self time is a
  /// span's duration minus the time its direct children cover (children of
  /// one span run one after another on the span's thread).
  struct LayerTime {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, LayerTime> SelfTimes() const {
    std::map<std::string, LayerTime> out;
    for (const auto& buffer : buffers_) {
      const auto& spans = buffer->spans();
      std::vector<double> child_us(spans.size(), 0.0);
      for (const Span& span : spans) {
        if (span.parent >= 0) child_us[span.parent] += span.DurationUs();
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        LayerTime& layer = out[spans[i].name];
        ++layer.count;
        layer.total_us += spans[i].DurationUs();
        layer.self_us += std::max(0.0, spans[i].DurationUs() - child_us[i]);
      }
    }
    return out;
  }

  /// Writes every span as one tab-separated line:
  /// thread, index, parent, query id, name, start ns, end ns.
  bool Write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "thread\tindex\tparent\tquery_id\tname\tstart_ns\tend_ns\n");
    for (size_t t = 0; t < buffers_.size(); ++t) {
      const auto& spans = buffers_[t]->spans();
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(file, "%zu\t%zu\t%lld\t%lld\t%s\t%lld\t%lld\n", t, i,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.query_id), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(file) == 0;
  }

  /// Durations (us) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& buffer : buffers_) {
      for (const Span& span : buffer->spans()) {
        if (name == span.name) out.push_back(span.DurationUs());
      }
    }
    return out;
  }

 private:
  const bool enabled_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
