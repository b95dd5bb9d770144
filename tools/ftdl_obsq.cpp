// ftdl-obsq — offline query/verify tool for ftdl-stream-v1 event logs
// (format spec: docs/obs-stream-format.md; workflows: docs/operations.md).
//
// Loads a log recorded by `ftdl-serve --stream` / `ftdl-prof --stream` (or
// any obs::stream::StreamWriter) and operates on the reconstructed run:
//
//   ftdl-obsq LOG [options]
//     (no option)      summary: framing, records, tracks, spans, health
//     --check          verify structural invariants (contiguous chunk and
//                      record sequences, balanced + monotonic spans,
//                      resolvable strings); exit 1 with the offending
//                      sequence number on the first violation
//     --txns           reconstruct request transactions (enqueue ->
//                      execute pairs recorded by ftdl::serve) and print
//                      one line per request
//     --trace FILE     export Chrome trace-event JSON from the log —
//                      byte-identical to the live registry's export for
//                      the same run
//     --metrics FILE   export the ftdl-metrics-v1 snapshot from the log
//     --hexdump        print the raw log bytes xxd-style (the rendering
//                      the format spec's worked example uses)
//
// Exit status: 0 = loaded fine and (with --check) all invariants hold;
// 1 = damage or an invariant violation; 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/file_io.h"
#include "obs/obs.h"
#include "obs/stream_reader.h"

namespace {

using namespace ftdl;
using namespace ftdl::obs::stream;

struct Args {
  std::string log_path;
  std::string trace_path;    ///< empty = no trace export
  std::string metrics_path;  ///< empty = no metrics export
  bool check = false;
  bool txns = false;
  bool hexdump = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "ftdl-obsq: %s\n", msg);
  std::fprintf(stderr,
               "usage: ftdl-obsq LOG [--check] [--txns] [--trace FILE] "
               "[--metrics FILE] [--hexdump]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--check") == 0) args.check = true;
    else if (std::strcmp(a, "--txns") == 0) args.txns = true;
    else if (std::strcmp(a, "--hexdump") == 0) args.hexdump = true;
    else if (std::strcmp(a, "--trace") == 0) args.trace_path = next(i);
    else if (std::strcmp(a, "--metrics") == 0) args.metrics_path = next(i);
    else if (a[0] == '-') usage(("unknown option " + std::string(a)).c_str());
    else if (!args.log_path.empty()) usage("more than one LOG argument");
    else args.log_path = a;
  }
  if (args.log_path.empty()) usage("missing LOG argument");
  return args;
}

void print_summary(const Args& args, const LoadedLog& log,
                   const ReconstructedLog& r) {
  std::printf("%s: ftdl-stream-v%u, %llu bytes\n", args.log_path.c_str(),
              log.version, static_cast<unsigned long long>(log.file_bytes));
  std::printf("  chunks: %zu complete, records: %zu, strings: %zu\n",
              log.chunks.size(), log.records.size(), log.strings.size());
  std::size_t begins = 0, ends = 0, counters = 0, gauges = 0, annos = 0;
  for (const Record& rec : log.records) {
    switch (static_cast<RecordKind>(rec.kind)) {
      case RecordKind::SpanBegin: ++begins; break;
      case RecordKind::SpanEnd: ++ends; break;
      case RecordKind::CounterAdd: ++counters; break;
      case RecordKind::GaugeSet: ++gauges; break;
      case RecordKind::Annotate: ++annos; break;
      default: break;
    }
  }
  std::printf("  tracks: %zu, span begins/ends: %zu/%zu, counter adds: %zu, "
              "gauge sets: %zu, annotations: %zu\n",
              r.tracks.size(), begins, ends, counters, gauges, annos);
  for (std::size_t i = 0; i < r.tracks.size(); ++i) {
    std::printf("    track %zu: %s / %s\n", i, r.tracks[i].process.c_str(),
                r.tracks[i].thread.c_str());
  }
  if (log.truncated) {
    std::printf("  TRUNCATED at byte %llu (incomplete tail chunk)\n",
                static_cast<unsigned long long>(log.truncation_offset));
  }
  for (const std::string& e : log.errors) {
    std::printf("  DAMAGE: %s\n", e.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.hexdump) {
      const auto bytes = read_file(args.log_path);
      if (!bytes) throw Error("cannot open " + args.log_path + " for reading");
      std::fputs(format_hex_dump(*bytes).c_str(), stdout);
      return 0;
    }

    const LoadedLog log = load_stream(args.log_path);
    const ReconstructedLog r = reconstruct(log);

    if (!args.trace_path.empty())
      write_file_atomic(args.trace_path,
                        obs::render_chrome_trace(r.tracks, r.events));
    if (!args.metrics_path.empty())
      write_file_atomic(args.metrics_path, obs::render_metrics_json(r.metrics));

    if (args.check) {
      const CheckReport report = check_log(log);
      std::fputs(report.to_string().c_str(), stdout);
      if (!report.ok()) return 1;
    } else if (args.txns) {
      const std::vector<Transaction> txns = reconstruct_transactions(r);
      std::printf("%zu transaction(s)\n", txns.size());
      for (const Transaction& t : txns) {
        if (!t.reject_reason.empty()) {
          std::printf("  request %llu: REJECTED (%s) at %.1f us\n",
                      static_cast<unsigned long long>(t.request),
                      t.reject_reason.c_str(), t.enqueue_ts);
          continue;
        }
        std::printf("  request %llu: enqueue %.1f us (+%.1f)",
                    static_cast<unsigned long long>(t.request), t.enqueue_ts,
                    t.enqueue_dur);
        if (t.has_execute) {
          std::printf("  execute %.1f us (+%.1f)", t.execute_ts,
                      t.execute_dur);
        } else {
          std::printf("  (no execute recorded)");
        }
        std::printf("\n");
      }
    } else {
      print_summary(args, log, r);
      // Damage fails the plain summary too so scripted use is safe.
      if (log.truncated || !log.errors.empty()) return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ftdl-obsq: %s\n", e.what());
    return 1;
  }
}
