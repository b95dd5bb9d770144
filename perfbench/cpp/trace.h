// In-memory span recorder of the traced run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into the framework's public functions (nothing inside src/ is
// instrumented). Each span has a name, an optional tag (network, layer
// class, ladder rate), start and end on the recorder's steady clock, the
// span that caused it, and the request it belongs to. Spans stay in memory
// and are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  std::string name;
  std::string tag;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span
  std::uint64_t request = 0;  ///< 0: not tied to one request

  double ms() const { return (end_us - start_us) / 1e3; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Microseconds since the recorder was created.
  double now_us() const;

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open. Returns the span id for close().
  std::int64_t open(std::string name, std::string tag = {},
                    std::uint64_t request = 0);
  void close(std::int64_t id);

  /// Records an already finished span (e.g. one derived from the timings a
  /// serve::InferenceResult carries). Returns its id.
  std::int64_t record(std::string name, std::string tag, double start_us,
                      double end_us, std::int64_t parent,
                      std::uint64_t request);

  /// Durations in ms of the closed spans called `name` (any tag when `tag`
  /// is empty).
  std::vector<double> durations_ms(const std::string& name,
                                   const std::string& tag = {}) const;
  double total_ms(const std::string& name, const std::string& tag = {}) const;

  std::vector<Span> spans() const;

  /// Writes one JSON object per span, then one summary line per span name
  /// (count, total and self time: duration minus the time its child spans
  /// cover).
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `tracer` is null.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::string tag = {},
        std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->open(std::move(name), std::move(tag), request)
                   : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
