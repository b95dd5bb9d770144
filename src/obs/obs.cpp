#include "obs/obs.h"

#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.h"
#include "common/file_io.h"
#include "obs/stream_format.h"
#include "obs/stream_writer.h"

namespace ftdl::obs {

namespace detail {
bool g_enabled = false;
}  // namespace detail

void set_enabled(bool on) {
  if (!on) Registry::global().detach_stream();
  detail::g_enabled = on;
}

void set_enabled(bool on, const std::string& stream_path) {
  if (on && !stream_path.empty()) {
    Registry::global().attach_stream(
        std::make_shared<stream::StreamWriter>(stream_path));
  }
  set_enabled(on);
}

namespace {
thread_local std::string t_track_name = "main";
}  // namespace

void set_thread_track_name(const std::string& name) { t_track_name = name; }
const std::string& thread_track_name() { return t_track_name; }

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Shortest representation of a double that round-trips through strtod.
std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer a shorter form when it round-trips exactly.
  for (int prec = 6; prec < 17; ++prec) {
    char cand[32];
    std::snprintf(cand, sizeof(cand), "%.*g", prec, v);
    if (std::strtod(cand, nullptr) == v) return cand;
  }
  return buf;
}

}  // namespace

Registry& Registry::global() {
  static Registry r;
  return r;
}

void Registry::bump_counter_locked(const std::string& name,
                                   std::int64_t delta) {
  counters_[name] += delta;
  if (stream_) {
    stream::Record r;
    r.kind = static_cast<std::uint8_t>(stream::RecordKind::CounterAdd);
    r.name_id = stream_->intern(name);
    r.payload = stream::i64_bits(delta);
    stream_->publish(&r, 1);
  }
}

void Registry::add(const std::string& name, std::int64_t delta) {
  MutexLock lock(mu_);
  bump_counter_locked(name, delta);
}

void Registry::set_gauge(const std::string& name, double value) {
  MutexLock lock(mu_);
  gauges_[name] = value;
  if (stream_) {
    stream::Record r;
    r.kind = static_cast<std::uint8_t>(stream::RecordKind::GaugeSet);
    r.name_id = stream_->intern(name);
    r.payload = stream::double_bits(value);
    stream_->publish(&r, 1);
  }
}

std::int64_t Registry::counter(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Registry::gauge(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::uint32_t Registry::track(const std::string& process,
                              const std::string& thread) {
  MutexLock lock(mu_);
  std::uint32_t pid = 0;
  bool pid_found = false;
  std::uint32_t max_tid = 0;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const TrackInfo& t = tracks_[i];
    if (t.process != process) continue;
    if (t.thread == thread) return static_cast<std::uint32_t>(i);
    pid = t.pid;
    pid_found = true;
    max_tid = std::max(max_tid, t.tid);
  }
  TrackInfo t;
  t.process = process;
  t.thread = thread;
  if (pid_found) {
    t.pid = pid;
    t.tid = max_tid + 1;
  } else {
    std::uint32_t max_pid = 0;
    for (const TrackInfo& e : tracks_) max_pid = std::max(max_pid, e.pid);
    t.pid = tracks_.empty() ? 1 : max_pid + 1;
    t.tid = 1;
  }
  tracks_.push_back(std::move(t));
  const std::uint32_t index = static_cast<std::uint32_t>(tracks_.size() - 1);
  publish_track_def_locked(index);
  return index;
}

void Registry::publish_track_def_locked(std::uint32_t index) {
  if (!stream_) return;
  const TrackInfo& t = tracks_[index];
  stream::Record r;
  r.kind = static_cast<std::uint8_t>(stream::RecordKind::TrackDef);
  r.track = index;
  r.name_id = stream_->intern(t.process);
  r.aux_id = stream_->intern(t.thread);
  r.payload = (std::uint64_t(t.pid) << 32) | std::uint64_t(t.tid);
  stream_->publish(&r, 1);
}

void Registry::begin(std::uint32_t track, std::string name, double ts,
                     const char* cat, SpanArgs args) {
  MutexLock lock(mu_);
  FTDL_ASSERT(track < tracks_.size());
  TrackInfo& t = tracks_[track];
  if (stream_) {
    // The log records every span, including ones the in-memory store is
    // about to drop at its capacity cap — that is the point of streaming.
    std::vector<stream::Record> group(1 + args.size());
    group[0].kind = static_cast<std::uint8_t>(stream::RecordKind::SpanBegin);
    group[0].argc = static_cast<std::uint8_t>(
        std::min<std::size_t>(args.size(), 255));
    group[0].track = track;
    group[0].payload = stream::double_bits(ts);
    group[0].name_id = stream_->intern(name);
    group[0].aux_id = stream_->intern(cat);
    for (std::size_t i = 0; i < args.size(); ++i) {
      group[1 + i].kind = static_cast<std::uint8_t>(stream::RecordKind::SpanArg);
      group[1 + i].track = track;
      group[1 + i].name_id = stream_->intern(args[i].first);
      group[1 + i].aux_id = stream_->intern(args[i].second);
    }
    stream_->publish(group.data(), group.size());
  }
  // +1 leaves room for the matching end() so exports stay balanced.
  if (events_.size() + 1 >= capacity_) {
    bump_counter_locked("obs/dropped_events", 2);
    t.open.push_back(-1);
    return;
  }
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ph = 'B';
  e.ts = ts;
  e.pid = t.pid;
  e.tid = t.tid;
  e.args = std::move(args);
  t.open.push_back(static_cast<std::int64_t>(events_.size()));
  events_.push_back(std::move(e));
}

void Registry::end(std::uint32_t track, double ts) {
  MutexLock lock(mu_);
  FTDL_ASSERT(track < tracks_.size());
  TrackInfo& t = tracks_[track];
  if (t.open.empty()) {
    bump_counter_locked("obs/unbalanced_ends", 1);
    return;
  }
  if (stream_) {
    stream::Record r;
    r.kind = static_cast<std::uint8_t>(stream::RecordKind::SpanEnd);
    r.track = track;
    r.payload = stream::double_bits(ts);
    stream_->publish(&r, 1);
  }
  const std::int64_t kept = t.open.back();
  t.open.pop_back();
  if (kept < 0) return;
  TraceEvent e;
  e.ph = 'E';
  e.ts = ts;
  e.pid = t.pid;
  e.tid = t.tid;
  events_.push_back(std::move(e));
}

void Registry::annotate(std::uint32_t track, const std::string& key,
                        const std::string& value) {
  MutexLock lock(mu_);
  FTDL_ASSERT(track < tracks_.size());
  TrackInfo& t = tracks_[track];
  if (t.open.empty()) {
    bump_counter_locked("obs/unbalanced_annotations", 1);
    return;
  }
  if (stream_) {
    stream::Record r;
    r.kind = static_cast<std::uint8_t>(stream::RecordKind::Annotate);
    r.track = track;
    r.name_id = stream_->intern(key);
    r.aux_id = stream_->intern(value);
    stream_->publish(&r, 1);
  }
  const std::int64_t open = t.open.back();
  if (open < 0) return;  // span itself was dropped at the capacity cap
  events_[static_cast<std::size_t>(open)].args.emplace_back(key, value);
}

double Registry::now_us() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  MutexLock lock(mu_);
  if (!epoch_set_) {
    epoch_ns_ = ns;
    epoch_set_ = true;
  }
  return double(ns - epoch_ns_) * 1e-3;
}

void Registry::set_capacity(std::size_t max_events) {
  MutexLock lock(mu_);
  capacity_ = max_events;
}

void Registry::attach_stream(std::shared_ptr<stream::StreamWriter> writer) {
  std::shared_ptr<stream::StreamWriter> previous;
  {
    MutexLock lock(mu_);
    previous = std::move(stream_);
    stream_ = std::move(writer);
    // Snapshot: tracks registered and scalar state accumulated before
    // attachment, so every later record in the log resolves and the log's
    // final counter/gauge state equals the registry's.
    for (std::uint32_t i = 0; i < tracks_.size(); ++i)
      publish_track_def_locked(i);
    if (stream_) {
      for (const auto& [name, value] : counters_) {
        stream::Record r;
        r.kind = static_cast<std::uint8_t>(stream::RecordKind::CounterAdd);
        r.name_id = stream_->intern(name);
        r.payload = stream::i64_bits(value);
        stream_->publish(&r, 1);
      }
      for (const auto& [name, value] : gauges_) {
        stream::Record r;
        r.kind = static_cast<std::uint8_t>(stream::RecordKind::GaugeSet);
        r.name_id = stream_->intern(name);
        r.payload = stream::double_bits(value);
        stream_->publish(&r, 1);
      }
    }
  }
  if (previous) previous->finish();
}

stream::StreamStats Registry::detach_stream() {
  std::shared_ptr<stream::StreamWriter> writer;
  {
    MutexLock lock(mu_);
    writer = std::move(stream_);
  }
  if (!writer) return stream::StreamStats{};
  // All publishes happen under mu_, and stream_ is now null under mu_, so
  // no publish can race the finish below.
  writer->finish();
  const stream::StreamStats s = writer->stats();
  MutexLock lock(mu_);
  counters_["obs/stream_records"] += static_cast<std::int64_t>(s.records);
  counters_["obs/stream_chunks"] +=
      static_cast<std::int64_t>(s.data_chunks + s.string_chunks);
  counters_["obs/stream_strings"] += static_cast<std::int64_t>(s.strings);
  counters_["obs/stream_bytes"] +=
      static_cast<std::int64_t>(s.bytes_written);
  return s;
}

bool Registry::stream_attached() const {
  MutexLock lock(mu_);
  return stream_ != nullptr;
}

Metrics Registry::metrics() const {
  MutexLock lock(mu_);
  return Metrics{counters_, gauges_};
}

std::string render_chrome_trace(const std::vector<TrackNames>& tracks,
                                const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96 + 1024);
  out += "{\n\"otherData\": {\"schema\": \"ftdl-trace-v1\"},\n";
  out += "\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  // Metadata: process / thread names, deduplicated per pid.
  std::map<std::uint32_t, bool> named_pid;
  for (const TrackNames& t : tracks) {
    if (!named_pid[t.pid]) {
      named_pid[t.pid] = true;
      sep();
      out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
             std::to_string(t.pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
             json_escape(t.process) + "\"}}";
    }
    sep();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
           std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid) +
           ",\"args\":{\"name\":\"" + json_escape(t.thread) + "\"}}";
  }
  for (const TraceEvent& e : events) {
    sep();
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\"";
    if (e.ph == 'B') {
      out += ",\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
             json_escape(e.cat) + "\"";
    }
    out += ",\"ts\":" + json_double(e.ts) + ",\"pid\":" +
           std::to_string(e.pid) + ",\"tid\":" + std::to_string(e.tid);
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool afirst = true;
      for (const auto& [k, v] : e.args) {
        if (!afirst) out += ",";
        afirst = false;
        out += '"';
        out += json_escape(k);
        out += "\":\"";
        out += json_escape(v);
        out += '"';
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

std::string render_metrics_json(const Metrics& m) {
  std::string out = "{\n\"schema\": \"ftdl-metrics-v1\",\n\"counters\": {\n";
  bool first = true;
  for (const auto& [name, value] : m.counters) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += "\n},\n\"gauges\": {\n";
  first = true;
  for (const auto& [name, value] : m.gauges) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + json_escape(name) + "\": " + json_double(value);
  }
  out += "\n}\n}\n";
  return out;
}

std::string Registry::chrome_trace_json() const {
  MutexLock lock(mu_);
  std::vector<TrackNames> tracks;
  tracks.reserve(tracks_.size());
  for (const TrackInfo& t : tracks_)
    tracks.push_back(TrackNames{t.process, t.thread, t.pid, t.tid});
  return render_chrome_trace(tracks, events_);
}

std::string Registry::metrics_json() const { return render_metrics_json(metrics()); }

void Registry::write_chrome_trace(const std::string& path) const {
  write_file_atomic(path, chrome_trace_json());
}

void Registry::write_metrics(const std::string& path) const {
  write_file_atomic(path, metrics_json());
}

void Registry::reset() {
  detach_stream();
  MutexLock lock(mu_);
  events_.clear();
  tracks_.clear();
  counters_.clear();
  gauges_.clear();
  epoch_set_ = false;
}

ScopedSpan::ScopedSpan(const char* cat, std::string name, SpanArgs args,
                       const char* thread) {
  if (!enabled()) return;
  Registry& r = Registry::global();
  track_ = r.track("host", thread ? thread : thread_track_name());
  r.begin(track_, std::move(name), r.now_us(), cat, std::move(args));
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Registry& r = Registry::global();
  r.end(track_, r.now_us());
}

void ScopedSpan::add_arg(const std::string& key, const std::string& value) {
  if (!active_) return;
  Registry::global().annotate(track_, key, value);
}

namespace {

/// Minimal parser for the exact documents metrics_json() emits.
class MetricsParser {
 public:
  explicit MetricsParser(const std::string& s) : s_(s) {}

  Metrics parse() {
    Metrics m;
    expect('{');
    bool first = true;
    while (!peek_is('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "schema") {
        if (parse_string() != "ftdl-metrics-v1")
          throw Error("metrics JSON: unknown schema");
      } else if (key == "counters") {
        parse_object([&](const std::string& k, const std::string& v) {
          m.counters[k] = std::strtoll(v.c_str(), nullptr, 10);
        });
      } else if (key == "gauges") {
        parse_object([&](const std::string& k, const std::string& v) {
          m.gauges[k] = std::strtod(v.c_str(), nullptr);
        });
      } else {
        throw Error("metrics JSON: unexpected key " + key);
      }
    }
    expect('}');
    return m;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }

  bool peek_is(char c) {
    skip_ws();
    return i_ < s_.size() && s_[i_] == c;
  }

  void expect(char c) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != c)
      throw Error(std::string("metrics JSON: expected '") + c + "'");
    ++i_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) {
        ++i_;
        switch (s_[i_]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: out += s_[i_];
        }
      } else {
        out += s_[i_];
      }
      ++i_;
    }
    expect('"');
    return out;
  }

  std::string parse_number_token() {
    skip_ws();
    std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '-' ||
            s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == 'i' || s_[i_] == 'n' || s_[i_] == 'f' || s_[i_] == 'a'))
      ++i_;
    if (i_ == start) throw Error("metrics JSON: expected a number");
    return s_.substr(start, i_ - start);
  }

  template <typename Fn>
  void parse_object(Fn&& on_pair) {
    expect('{');
    bool first = true;
    while (!peek_is('}')) {
      if (!first) expect(',');
      first = false;
      const std::string k = parse_string();
      expect(':');
      on_pair(k, parse_number_token());
    }
    expect('}');
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

Metrics parse_metrics_json(const std::string& json) {
  return MetricsParser(json).parse();
}

}  // namespace ftdl::obs
