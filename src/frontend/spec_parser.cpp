#include "frontend/spec_parser.h"

#include <cstdint>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/error.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "nn/model_zoo.h"

namespace ftdl::frontend {

namespace {

struct Shape {
  int c = 0, h = 0, w = 0;
  std::int64_t elems() const { return std::int64_t{c} * h * w; }
};

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ConfigError(strformat("spec line %d: %s", line, msg.c_str()));
}

/// One statement: a keyword, a positional name, key=value options and flags.
struct Statement {
  std::string keyword;
  std::string name;
  std::unordered_map<std::string, std::string> options;

  bool flag(const std::string& f) const { return options.contains(f); }

  /// A whole-token integer in [0, 2^31 - 1]: every option is a count or
  /// an extent that ends up in an int.
  std::optional<std::int64_t> get_int(const std::string& key, int line) const {
    auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    std::int64_t v = 0;
    if (!parse_int_strict(it->second.c_str(), 0, INT32_MAX, &v))
      fail(line, "option " + key + " is not an integer in [0, 2147483647]: " +
                     it->second);
    return v;
  }

  std::int64_t require_int(const std::string& key, int line) const {
    auto v = get_int(key, line);
    if (!v) fail(line, "missing required option " + key + "=");
    return *v;
  }
};

Statement tokenize(const std::string& line, int line_no) {
  std::istringstream in(line);
  Statement st;
  in >> st.keyword;
  std::string tok;
  bool first = true;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      if (first && st.keyword != "network" && st.keyword != "input") {
        st.name = tok;
      } else if (st.keyword == "network" && st.name.empty()) {
        st.name = tok;
      } else {
        st.options.emplace(tok, "");  // flag
      }
    } else {
      st.options.emplace(tok.substr(0, eq), tok.substr(eq + 1));
    }
    first = false;
  }
  // `input C H W` uses positional integers.
  if (st.keyword == "input") {
    std::istringstream again(line);
    std::string kw;
    int c = 0, h = 0, w = 0;
    again >> kw >> c >> h >> w;
    if (!again && !(c > 0 && h > 0 && w > 0))
      fail(line_no, "input expects: input C H W");
    st.options["c"] = std::to_string(c);
    st.options["h"] = std::to_string(h);
    st.options["w"] = std::to_string(w);
  }
  return st;
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : csv) {
    if (ch == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

class Parser {
 public:
  nn::Network parse(const std::string& text) {
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;
    std::optional<nn::Network> net;

    while (std::getline(in, raw)) {
      ++line_no;
      const auto hash = raw.find('#');
      std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

      const Statement st = tokenize(line, line_no);
      if (st.keyword == "network") {
        if (net) fail(line_no, "duplicate network statement");
        if (st.name.empty()) fail(line_no, "network needs a name");
        net.emplace(st.name);
        continue;
      }
      if (!net) fail(line_no, "first statement must be: network NAME");

      if (st.keyword == "input") {
        if (shapes_.contains(nn::kNetworkInput))
          fail(line_no, "duplicate input statement");
        Shape s{static_cast<int>(st.require_int("c", line_no)),
                static_cast<int>(st.require_int("h", line_no)),
                static_cast<int>(st.require_int("w", line_no))};
        shapes_[nn::kNetworkInput] = s;
        continue;
      }
      if (!shapes_.contains(nn::kNetworkInput))
        fail(line_no, "input C H W must come before layers");
      if (st.name.empty()) fail(line_no, st.keyword + " needs a layer name");

      if (st.keyword == "conv") add_conv(*net, st, line_no);
      else if (st.keyword == "depthwise") add_depthwise(*net, st, line_no);
      else if (st.keyword == "pool") add_pool(*net, st, line_no);
      else if (st.keyword == "fc") add_fc(*net, st, line_no);
      else if (st.keyword == "concat") add_concat(*net, st, line_no);
      else if (st.keyword == "ewop") add_ewop(*net, st, line_no);
      else fail(line_no, "unknown statement: " + st.keyword);
    }

    if (!net) throw ConfigError("spec has no network statement");
    if (net->layers().empty()) throw ConfigError("spec defines no layers");
    net->validate_graph();
    return std::move(*net);
  }

 private:
  /// Producers of this statement: explicit from= or the last layer added.
  std::vector<std::string> producers(const nn::Network& net,
                                     const Statement& st, int line) const {
    auto it = st.options.find("from");
    if (it != st.options.end()) {
      const auto names = split_names(it->second);
      if (names.empty()) fail(line, "empty from= list");
      return names;
    }
    if (net.layers().empty()) return {nn::kNetworkInput};
    return {net.layers().back().name};
  }

  Shape shape_of(const std::string& name, int line) const {
    auto it = shapes_.find(name);
    if (it == shapes_.end()) fail(line, "unknown producer: " + name);
    return it->second;
  }

  void add_conv(nn::Network& net, const Statement& st, int line) {
    const auto from = producers(net, st, line);
    if (from.size() != 1) fail(line, "conv takes exactly one input");
    const Shape in = shape_of(from[0], line);
    const int out_c = static_cast<int>(st.require_int("out", line));
    const int k = static_cast<int>(st.get_int("k", line).value_or(3));
    const int kh = static_cast<int>(st.get_int("kh", line).value_or(k));
    const int kw = static_cast<int>(st.get_int("kw", line).value_or(k));
    const int stride = static_cast<int>(st.get_int("stride", line).value_or(1));
    const int pad = static_cast<int>(st.get_int("pad", line).value_or(0));
    nn::Layer l = nn::make_conv2(st.name, in.c, in.h, in.w, out_c, kh, kw,
                                 stride, pad, !st.flag("norelu"));
    l.input_names = from;
    shapes_[st.name] = Shape{out_c, l.out_h(), l.out_w()};
    net.add(std::move(l));
  }

  void add_depthwise(nn::Network& net, const Statement& st, int line) {
    const auto from = producers(net, st, line);
    if (from.size() != 1) fail(line, "depthwise takes exactly one input");
    const Shape in = shape_of(from[0], line);
    const int k = static_cast<int>(st.get_int("k", line).value_or(3));
    const int stride = static_cast<int>(st.get_int("stride", line).value_or(1));
    const int pad = static_cast<int>(st.get_int("pad", line).value_or(0));
    nn::Layer l = nn::make_depthwise(st.name, in.c, in.h, in.w, k, stride, pad,
                                     !st.flag("norelu"));
    l.input_names = from;
    shapes_[st.name] = Shape{in.c, l.out_h(), l.out_w()};
    net.add(std::move(l));
  }

  void add_pool(nn::Network& net, const Statement& st, int line) {
    const auto from = producers(net, st, line);
    if (from.size() != 1) fail(line, "pool takes exactly one input");
    const Shape in = shape_of(from[0], line);
    const int k = static_cast<int>(st.require_int("k", line));
    const int stride = static_cast<int>(st.get_int("stride", line).value_or(k));
    const int pad = static_cast<int>(st.get_int("pad", line).value_or(0));
    nn::Layer l = nn::make_pool(st.name, in.c, in.h, in.w, k, stride, pad);
    if (st.flag("avg")) l.pool_op = nn::PoolOp::Avg;
    l.input_names = from;
    shapes_[st.name] = Shape{in.c, l.out_h(), l.out_w()};
    net.add(std::move(l));
  }

  void add_fc(nn::Network& net, const Statement& st, int line) {
    const auto from = producers(net, st, line);
    if (from.size() != 1) fail(line, "fc takes exactly one input");
    const Shape in = shape_of(from[0], line);
    const std::int64_t out = st.require_int("out", line);
    nn::Layer l =
        nn::make_matmul(st.name, in.elems(), out, 1, st.flag("relu"));
    l.input_names = from;
    shapes_[st.name] = Shape{static_cast<int>(out), 1, 1};
    net.add(std::move(l));
  }

  void add_concat(nn::Network& net, const Statement& st, int line) {
    auto it = st.options.find("from");
    if (it == st.options.end()) fail(line, "concat requires from=A,B[,..]");
    const auto from = split_names(it->second);
    if (from.size() < 2) fail(line, "concat needs >= 2 inputs");
    int c = 0;
    const Shape first = shape_of(from[0], line);
    for (const std::string& f : from) {
      const Shape s = shape_of(f, line);
      if (s.h != first.h || s.w != first.w)
        fail(line, "concat spatial shape mismatch at " + f);
      c += s.c;
    }
    net.add(nn::make_concat(st.name, from));
    shapes_[st.name] = Shape{c, first.h, first.w};
  }

  void add_ewop(nn::Network& net, const Statement& st, int line) {
    const auto from = producers(net, st, line);
    nn::Layer l = nn::make_ewop(st.name, st.require_int("ops", line));
    l.input_names = from;
    shapes_[st.name] = shape_of(from[0], line);
    net.add(std::move(l));
  }

  std::unordered_map<std::string, Shape> shapes_;
};

}  // namespace

nn::Network parse_network_spec(const std::string& text) {
  return Parser{}.parse(text);
}

nn::Network parse_network_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw ConfigError("cannot open spec file: " + path);
  return parse_network_spec(*text);
}

nn::Network load_model(const std::string& model) {
  if (model.ends_with(".ftdl")) return parse_network_file(model);
  return nn::model_by_name(model);
}

}  // namespace ftdl::frontend
