#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "common/error.h"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + '"';
}

}  // namespace

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::int64_t Tracer::open(std::string name, std::string tag,
                          std::uint64_t request) {
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({std::move(name), std::move(tag), start, -1.0, id, parent,
                    request});
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now_us();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_us = end;
}

std::int64_t Tracer::record(std::string name, std::string tag,
                            double start_us, double end_us,
                            std::int64_t parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({std::move(name), std::move(tag), start_us, end_us, id,
                    parent, request});
  return id;
}

std::vector<double> Tracer::durations_ms(const std::string& name,
                                         const std::string& tag) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_)
    if (s.end_us >= 0.0 && s.name == name && (tag.empty() || s.tag == tag))
      out.push_back(s.ms());
  return out;
}

double Tracer::total_ms(const std::string& name, const std::string& tag) const {
  double sum = 0.0;
  for (double d : durations_ms(name, tag)) sum += d;
  return sum;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream f(path);
  if (!f) throw ftdl::Error("perfbench: cannot write " + path);
  // Child intervals per parent; concurrent children (requests of one load
  // step) overlap, so a parent's covered time is the union of theirs.
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.end_us < 0.0) continue;
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    f << "{\"span\":" << quoted(s.name) << ",\"tag\":" << quoted(s.tag)
      << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
      << ",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}\n";
  }
  struct Sum {
    std::int64_t count = 0;
    double total_ms = 0.0, self_ms = 0.0;
  };
  std::map<std::string, Sum> by_name;
  for (const Span& s : all) {
    if (s.end_us < 0.0) continue;
    auto& kids = children[static_cast<std::size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    double covered_us = 0.0, reach = s.start_us;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end_us);
      if (e > b) covered_us += e - b;
      reach = std::max(reach, e);
    }
    Sum& sum = by_name[s.name];
    ++sum.count;
    sum.total_ms += s.ms();
    sum.self_ms += s.ms() - covered_us / 1e3;
  }
  for (const auto& [name, sum] : by_name)
    f << "{\"summary\":" << quoted(name) << ",\"count\":" << sum.count
      << ",\"total_ms\":" << sum.total_ms << ",\"self_ms\":" << sum.self_ms
      << "}\n";
}

}  // namespace perfbench
