// ftdl::obs — cross-layer observability.
//
// One process-wide Registry collects three kinds of signal:
//   * counters  — monotonically accumulated int64 totals with hierarchical
//     slash-separated names ("sim/act_refills");
//   * gauges    — last-written doubles ("host/frame_seconds");
//   * spans     — begin/end intervals on named tracks, either on the wall
//     clock (compiler phases, runtime layer execution) or on a *virtual*
//     clock (the cycle-level simulator emits one span per timing pass, in
//     CLKh cycles, carrying the pass's Eqn. 7/8/9/12 totals as args).
//
// Collection is globally gated by set_enabled(): every instrumentation site
// first reads one global bool, so a build with observability compiled in
// but disabled costs a predicted branch per site and allocates nothing.
// Framework results never depend on the registry — enabling or disabling
// observability leaves compiler and simulator outputs bit-identical (pinned
// by tests/test_obs.cpp).
//
// Storage. The registry keeps counters, gauges, track names and an
// open-span depth per track (for the obs/unbalanced_* counters). Spans are
// stored in one place only: the append-only ftdl-stream-v1 event log
// (docs/obs-stream-format.md) attached by set_enabled(true, "run.stream").
// Instrumented threads publish fixed-size records into per-thread chunks
// and a background serializer writes them, so no span is ever dropped
// however long the run. With no log attached, spans are checked for
// balance and counted (event_count()) but not kept.
//
// Exporters (schemas documented in docs/observability.md):
//   * render_chrome_trace() — Chrome trace-event JSON ("JSON Object Format"
//     with a traceEvents array of B/E pairs plus process/thread-name
//     metadata), loadable in Perfetto / chrome://tracing. Every trace.json
//     is rendered from a recorded log (obs/stream_reader.h: load_stream ->
//     reconstruct -> render_chrome_trace);
//   * metrics_json()        — flat {"counters": {...}, "gauges": {...}}
//     snapshot, parseable back via parse_metrics_json(). The log replays to
//     the same snapshot, so log-derived metrics are byte-identical to live
//     ones for the same run.
//
// The registry is thread-safe: every mutating and reading operation takes
// one internal mutex, so instrumentation from the compiler session's worker
// threads (src/common/thread_pool.h) is safe. Spans still must nest *per
// track*; parallel code gets that for free by giving each worker thread its
// own track via set_thread_track_name() — ScopedSpan picks the calling
// thread's registered track name up as its default.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ftdl::obs {

namespace stream {
class StreamWriter;
struct StreamStats;
}  // namespace stream

namespace detail {
extern bool g_enabled;
}  // namespace detail

/// True when collection is on. Off by default so library consumers and the
/// test suite pay (almost) nothing.
inline bool enabled() { return detail::g_enabled; }
void set_enabled(bool on);

/// Enables collection and attaches an ftdl-stream-v1 event log on
/// `stream_path`, where spans are kept (empty = counters and gauges only,
/// identical to set_enabled(on)). Disabling detaches and finishes any
/// attached stream. Throws ftdl::Error when the file cannot be opened.
void set_enabled(bool on, const std::string& stream_path);

/// Sets the calling thread's default ScopedSpan track ("main" unless set).
/// The compiler session names each pool worker ("jobs-0", "jobs-1", ...) so
/// per-task spans land on per-worker tracks and keep the per-track nesting
/// and monotonicity invariants.
void set_thread_track_name(const std::string& name);
const std::string& thread_track_name();

/// Key/value annotations attached to a span ("layer" -> "conv1/3x3").
using SpanArgs = std::vector<std::pair<std::string, std::string>>;

/// One trace-event record. `ts_us` is microseconds on wall-clock tracks and
/// CLKh cycles on the simulator's virtual tracks (1 cycle rendered as 1 us).
struct TraceEvent {
  std::string name;
  std::string cat;     ///< owning subsystem: compiler / sim / runtime / ...
  char ph = 'B';       ///< 'B' begin or 'E' end
  double ts = 0.0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  SpanArgs args;
};

/// Flat snapshot of the registry's scalar state.
struct Metrics {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
};

/// Names + Chrome trace ids of one track, in registration order, as the
/// offline stream loader rebuilds them for render_chrome_trace().
struct TrackNames {
  std::string process;
  std::string thread;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

/// Renders the ftdl-trace-v1 Chrome trace-event document for the given
/// tracks and event list (a reconstructed log's).
std::string render_chrome_trace(const std::vector<TrackNames>& tracks,
                                const std::vector<TraceEvent>& events);

/// Renders the ftdl-metrics-v1 document for a metrics snapshot.
std::string render_metrics_json(const Metrics& m);

/// Escapes a string for inclusion inside JSON double quotes (shared with
/// ftdl-lint's --json report).
std::string json_escape(const std::string& s);

class Registry {
 public:
  /// The process-wide registry every instrumentation site writes to.
  static Registry& global();

  // ---- counters / gauges ----
  void add(const std::string& name, std::int64_t delta = 1);
  void set_gauge(const std::string& name, double value);
  std::int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  // ---- tracks & spans ----

  /// Registers (or finds) the track named `process` / `thread` and returns
  /// its handle. Tracks map to Chrome trace pid/tid pairs; every span lives
  /// on exactly one track and spans on one track must nest.
  std::uint32_t track(const std::string& process, const std::string& thread);

  /// Opens a span on `track` at timestamp `ts` (microseconds or cycles,
  /// depending on the track's clock domain). Must be closed by end() with a
  /// timestamp >= ts; timestamps on one track must be monotonic.
  void begin(std::uint32_t track, std::string name, double ts,
             const char* cat, SpanArgs args = {});

  /// Closes the innermost open span of `track`. Unmatched end() calls are
  /// dropped and counted under "obs/unbalanced_ends".
  void end(std::uint32_t track, double ts);

  /// Appends {key, value} to the args of the innermost *open* span of
  /// `track` — for facts only known after the span began (the request id a
  /// Server::submit admission assigns, the cycle count an execution
  /// produced). With no open span the call is dropped and counted under
  /// "obs/unbalanced_annotations".
  void annotate(std::uint32_t track, const std::string& key,
                const std::string& value);

  // ---- streaming backend ----

  /// Attaches `writer` as the span store: from this call on, every track
  /// definition, span begin/end/annotation, counter add and gauge set is
  /// published to the log. Attachment starts by snapshotting already-
  /// registered tracks and current counter/gauge values into the log, so a
  /// log attached at t reflects all scalar state from t on; spans recorded
  /// before attachment are not kept. Replaces (and finishes) any previously
  /// attached writer.
  void attach_stream(std::shared_ptr<stream::StreamWriter> writer);

  /// Detaches the streaming sink, finishes the log (flush + close) and
  /// returns the writer's final stats; also accumulates them into the
  /// registry counters as obs/stream_records, obs/stream_chunks,
  /// obs/stream_strings and obs/stream_bytes (never in the log by construction
  /// — the log is already closed when they are recorded). No-op returning
  /// zeros when nothing is attached.
  stream::StreamStats detach_stream();

  bool stream_attached() const;

  /// Wall-clock microseconds since the registry's first use (steady clock).
  double now_us();

  /// Span begin/end events accepted since reset() (an unmatched end() is
  /// not accepted), whether or not a log was attached to keep them.
  std::size_t event_count() const;

  Metrics metrics() const;

  // ---- exporters ----
  std::string metrics_json() const;
  void write_metrics(const std::string& path) const;

  /// Clears the event count, counters, gauges, tracks and the wall-clock
  /// epoch, detaching (and finishing) any attached stream first.
  void reset();

 private:
  struct TrackInfo {
    std::string process;
    std::string thread;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::size_t open = 0;  ///< spans begun and not yet ended
  };

  void bump_counter_locked(const std::string& name, std::int64_t delta)
      FTDL_REQUIRES(mu_);
  void publish_track_def_locked(std::uint32_t index) FTDL_REQUIRES(mu_);

  // All state below is guarded by mu_ (one coarse lock; instrumentation
  // sites are far from any inner loop). Stream publication happens inside
  // the same critical section that mutates the registry's state, so record
  // sequence numbers in the log reproduce the registry's event order
  // exactly; the writer's fast path is one uncontended per-thread mutex,
  // and all slow work (I/O, CRC, framing) lives on its serializer thread.
  mutable Mutex mu_;
  std::size_t event_count_ FTDL_GUARDED_BY(mu_) = 0;
  std::vector<TrackInfo> tracks_ FTDL_GUARDED_BY(mu_);
  std::map<std::string, std::int64_t> counters_ FTDL_GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ FTDL_GUARDED_BY(mu_);
  std::shared_ptr<stream::StreamWriter> stream_ FTDL_GUARDED_BY(mu_);
  bool epoch_set_ FTDL_GUARDED_BY(mu_) = false;
  std::int64_t epoch_ns_ FTDL_GUARDED_BY(mu_) = 0;
};

/// RAII wall-clock span on the given track of the "host" process. Samples
/// the clock only when observability is enabled at construction. With no
/// explicit thread name (nullptr), the span lands on the calling thread's
/// registered track (thread_track_name(): "main", or the pool worker's).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* cat, std::string name, SpanArgs args = {},
                      const char* thread = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches {key, value} to this (still open) span — for values that are
  /// only known after construction, like an admission-assigned request id.
  /// No-op when observability was off at construction.
  void add_arg(const std::string& key, const std::string& value);

 private:
  bool active_ = false;
  std::uint32_t track_ = 0;
};

// Convenience wrappers: no-ops (one branch) when observability is off.
inline void count(const char* name, std::int64_t delta = 1) {
  if (enabled()) Registry::global().add(name, delta);
}
inline void gauge(const char* name, double value) {
  if (enabled()) Registry::global().set_gauge(name, value);
}

/// Parses a metrics_json() document back into a Metrics snapshot. Throws
/// ftdl::Error on documents that do not match the ftdl-metrics-v1 schema.
Metrics parse_metrics_json(const std::string& json);

}  // namespace ftdl::obs
