// ftdl-stream-v1 — writer/reader round trips, crash-truncation recovery,
// CRC rejection, invariant checking, and the two guarantees the format
// spec makes: exports reconstructed from a log are byte-identical to the
// live registry's, and the spec's worked hex dump is exactly what the
// writer emits (docs/obs-stream-format.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/file_io.h"
#include "obs/obs.h"
#include "obs/stream_reader.h"
#include "obs/stream_writer.h"
#include "obs_log.h"

namespace {

using namespace ftdl;
using namespace ftdl::obs::stream;

/// Start from a clean global registry with collection off; leave it that
/// way for the rest of the suite. Log files are written into the build
/// dir (the ctest working directory) and removed on teardown.
class ObsStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string log_path(const std::string& name) {
    cleanup_.push_back(name);
    return name;
  }
  std::vector<std::string> cleanup_;
};

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good());
  out << bytes;
}

/// Deterministic writer: no periodic sweeps, so the file contents depend
/// only on the publish calls (used by the golden-bytes tests).
StreamWriterOptions deterministic_options(std::size_t chunk_records = 2048) {
  StreamWriterOptions opt;
  opt.chunk_records = chunk_records;
  opt.flush_period_ms = 0;
  return opt;
}

/// The spec's canonical two-span log (docs/obs-stream-format.md "Worked
/// example"): one track, an `enqueue` span carrying one arg, then an
/// `execute` span, all on fixed timestamps from a single thread.
std::string write_canonical_two_span_log(const std::string& path) {
  StreamWriter w(path, deterministic_options());
  Record r[6];
  r[0].kind = static_cast<std::uint8_t>(RecordKind::TrackDef);
  r[0].track = 0;
  r[0].name_id = w.intern("host");
  r[0].aux_id = w.intern("main");
  r[0].payload = (std::uint64_t(1) << 32) | 1;  // pid 1, tid 1
  r[1].kind = static_cast<std::uint8_t>(RecordKind::SpanBegin);
  r[1].argc = 1;
  r[1].track = 0;
  r[1].payload = double_bits(10.0);
  r[1].aux_id = w.intern("serve");
  r[1].name_id = w.intern("enqueue");
  r[2].kind = static_cast<std::uint8_t>(RecordKind::SpanArg);
  r[2].name_id = w.intern("request");
  r[2].aux_id = w.intern("1");
  r[3].kind = static_cast<std::uint8_t>(RecordKind::SpanEnd);
  r[3].track = 0;
  r[3].payload = double_bits(12.5);
  r[4].kind = static_cast<std::uint8_t>(RecordKind::SpanBegin);
  r[4].track = 0;
  r[4].payload = double_bits(20.0);
  r[4].aux_id = w.intern("serve");  // already interned: same id
  r[4].name_id = w.intern("execute");
  r[5].kind = static_cast<std::uint8_t>(RecordKind::SpanEnd);
  r[5].track = 0;
  r[5].payload = double_bits(25.0);
  w.publish(r, 6);
  w.finish();
  return read_file(path).value();
}

/// A small multi-chunk log: `groups` publishes of `per_chunk` CounterAdd
/// records each, with chunk_records == per_chunk so every publish seals
/// exactly one data chunk. Chunk 0 is the string table.
std::string write_chunked_counter_log(const std::string& path, int groups,
                                      std::size_t per_chunk) {
  StreamWriter w(path, deterministic_options(per_chunk));
  const std::uint32_t name = w.intern("test/adds");
  for (int g = 0; g < groups; ++g) {
    std::vector<Record> recs(per_chunk);
    for (Record& r : recs) {
      r.kind = static_cast<std::uint8_t>(RecordKind::CounterAdd);
      r.name_id = name;
      r.payload = i64_bits(1);
    }
    w.publish(recs.data(), recs.size());
  }
  w.finish();
  return read_file(path).value();
}

TEST_F(ObsStreamTest, EmptyLogIsJustTheFileHeader) {
  const std::string path = log_path("obs_stream_empty.stream");
  {
    StreamWriter w(path, deterministic_options());
    w.finish();
  }
  const LoadedLog log = load_stream(path);
  EXPECT_EQ(log.file_bytes, kFileHeaderBytes);
  EXPECT_EQ(log.version, kFormatVersion);
  EXPECT_TRUE(log.chunks.empty());
  EXPECT_TRUE(log.records.empty());
  EXPECT_FALSE(log.truncated);
  EXPECT_TRUE(check_log(log).ok());
}

TEST_F(ObsStreamTest, WriterRoundTripPreservesRecordsAndStrings) {
  const std::string path = log_path("obs_stream_roundtrip.stream");
  write_canonical_two_span_log(path);
  const LoadedLog log = load_stream(path);

  EXPECT_FALSE(log.truncated);
  EXPECT_TRUE(log.errors.empty());
  ASSERT_EQ(log.records.size(), 6u);
  ASSERT_EQ(log.chunks.size(), 2u);  // strings, then one data chunk
  EXPECT_EQ(log.chunks[0].header.kind,
            static_cast<std::uint32_t>(ChunkKind::Strings));
  EXPECT_EQ(log.chunks[1].header.kind,
            static_cast<std::uint32_t>(ChunkKind::Data));
  EXPECT_EQ(log.chunks[0].header.chunk_seq, 0u);
  EXPECT_EQ(log.chunks[1].header.chunk_seq, 1u);
  ASSERT_EQ(log.strings.size(), 7u);
  EXPECT_EQ(log.strings.at(1), "host");
  EXPECT_EQ(log.strings.at(7), "execute");
  for (std::size_t i = 0; i < log.records.size(); ++i)
    EXPECT_EQ(log.records[i].seq, i);
  EXPECT_TRUE(check_log(log).ok());

  const ReconstructedLog r = reconstruct(log);
  ASSERT_EQ(r.tracks.size(), 1u);
  EXPECT_EQ(r.tracks[0].process, "host");
  EXPECT_EQ(r.tracks[0].thread, "main");
  ASSERT_EQ(r.events.size(), 4u);  // B E B E (args folded into their B)
  EXPECT_EQ(r.events[0].name, "enqueue");
  ASSERT_EQ(r.events[0].args.size(), 1u);
  EXPECT_EQ(r.events[0].args[0].first, "request");
  EXPECT_EQ(r.events[0].args[0].second, "1");
  EXPECT_DOUBLE_EQ(r.events[1].ts, 12.5);
  EXPECT_EQ(r.events[2].name, "execute");
}

// The format spec's worked example is not prose that can drift: this test
// regenerates the canonical log and requires the hex dump embedded in
// docs/obs-stream-format.md to match it byte for byte.
TEST_F(ObsStreamTest, SpecWorkedExampleMatchesWriterBytes) {
  const std::string path = log_path("obs_stream_golden.stream");
  const std::string bytes = write_canonical_two_span_log(path);
  const std::string dump = format_hex_dump(bytes);

  const std::string doc =
      read_file(std::string(FTDL_DOCS_DIR) + "/obs-stream-format.md").value();
  const std::string marker = "<!-- worked-example-hex-dump -->";
  const std::size_t at = doc.find(marker);
  ASSERT_NE(at, std::string::npos)
      << "docs/obs-stream-format.md lost its worked-example marker";
  const std::size_t fence_open = doc.find("```\n", at);
  ASSERT_NE(fence_open, std::string::npos);
  const std::size_t body = fence_open + 4;
  const std::size_t fence_close = doc.find("```", body);
  ASSERT_NE(fence_close, std::string::npos);
  EXPECT_EQ(doc.substr(body, fence_close - body), dump)
      << "the spec's worked example no longer matches the writer's bytes; "
         "regenerate it with: ftdl-obsq <canonical log> --hexdump";
}

TEST_F(ObsStreamTest, TruncationMidChunkHeaderKeepsCompleteChunks) {
  const std::string path = log_path("obs_stream_trunc1.stream");
  const std::string bytes = write_chunked_counter_log(path, 3, 4);
  const LoadedLog full = load_stream(path);
  ASSERT_EQ(full.chunks.size(), 4u);  // strings + 3 data chunks
  ASSERT_EQ(full.records.size(), 12u);
  ASSERT_TRUE(check_log(full).ok());

  // Cut 16 bytes into the last chunk's header: everything before it must
  // still load, and the reported truncation offset is exactly the first
  // byte of the unrecoverable tail (that chunk's header).
  const std::uint64_t tail = full.chunks.back().file_offset;
  const std::string cut_path = log_path("obs_stream_trunc1_cut.stream");
  write_bytes(cut_path, bytes.substr(0, tail + 16));
  const LoadedLog cut = load_stream(cut_path);
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.truncation_offset, tail);
  EXPECT_EQ(cut.chunks.size(), 3u);
  EXPECT_EQ(cut.records.size(), 8u);

  const CheckReport rep = check_log(cut);
  EXPECT_FALSE(rep.ok());
  bool found = false;
  for (const CheckProblem& p : rep.problems) {
    if (p.kind == "truncated") {
      found = true;
      // Records 0..7 survive; the first unrecovered sequence is 8.
      EXPECT_EQ(p.seq, 8u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(rep.to_string().find("8"), std::string::npos);
}

TEST_F(ObsStreamTest, TruncationMidPayloadKeepsCompleteChunks) {
  const std::string path = log_path("obs_stream_trunc2.stream");
  const std::string bytes = write_chunked_counter_log(path, 3, 4);
  const LoadedLog full = load_stream(path);
  const std::uint64_t tail = full.chunks.back().file_offset;

  // Header complete, payload short: the whole tail chunk is unrecoverable
  // and the truncation offset still points at its header.
  const std::string cut_path = log_path("obs_stream_trunc2_cut.stream");
  write_bytes(cut_path, bytes.substr(0, tail + kChunkHeaderBytes + 10));
  const LoadedLog cut = load_stream(cut_path);
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.truncation_offset, tail);
  EXPECT_EQ(cut.records.size(), 8u);
  EXPECT_FALSE(check_log(cut).ok());
}

TEST_F(ObsStreamTest, CrcCorruptionRejectsOnlyThatChunk) {
  const std::string path = log_path("obs_stream_crc.stream");
  std::string bytes = write_chunked_counter_log(path, 3, 4);
  const LoadedLog full = load_stream(path);
  ASSERT_EQ(full.chunks.size(), 4u);

  // Flip one payload byte of the middle data chunk (records 4..7).
  const std::uint64_t off =
      full.chunks[2].file_offset + kChunkHeaderBytes + 5;
  bytes[off] = static_cast<char>(bytes[off] ^ 0x40);
  const std::string bad_path = log_path("obs_stream_crc_bad.stream");
  write_bytes(bad_path, bytes);

  const LoadedLog bad = load_stream(bad_path);
  EXPECT_FALSE(bad.truncated);  // framing intact, later chunks still load
  ASSERT_EQ(bad.errors.size(), 1u);
  EXPECT_NE(bad.errors[0].find("CRC mismatch"), std::string::npos);
  EXPECT_EQ(bad.chunks.size(), 3u);
  EXPECT_EQ(bad.records.size(), 8u);

  const CheckReport rep = check_log(bad);
  EXPECT_FALSE(rep.ok());
  bool damage = false, gap = false;
  for (const CheckProblem& p : rep.problems) {
    if (p.kind == "chunk_damage") damage = true;
    if (p.kind == "missing_record_seq") {
      gap = true;
      EXPECT_EQ(p.seq, 4u);  // first record of the rejected chunk
    }
  }
  EXPECT_TRUE(damage);
  EXPECT_TRUE(gap);
}

TEST_F(ObsStreamTest, NotAStreamFileThrows) {
  const std::string path = log_path("obs_stream_not_a_log.stream");
  write_bytes(path, "definitely not a stream file");
  EXPECT_THROW(load_stream(path), Error);
  EXPECT_THROW(load_stream("obs_stream_does_not_exist.stream"), Error);
}

TEST_F(ObsStreamTest, PublishAfterFinishDropsAndCounts) {
  const std::string path = log_path("obs_stream_after_finish.stream");
  StreamWriter w(path, deterministic_options());
  Record r;
  r.kind = static_cast<std::uint8_t>(RecordKind::CounterAdd);
  r.name_id = w.intern("x");
  r.payload = i64_bits(1);
  w.publish(&r, 1);
  w.finish();
  w.publish(&r, 1);
  w.finish();  // idempotent
  const StreamStats s = w.stats();
  EXPECT_EQ(s.records, 1u);
  EXPECT_EQ(s.dropped_after_finish, 1u);
  EXPECT_EQ(load_stream(path).records.size(), 1u);
}

TEST_F(ObsStreamTest, ConcurrentPublishersKeepSequencesContiguous) {
  const std::string path = log_path("obs_stream_threads.stream");
  {
    StreamWriterOptions opt;
    opt.chunk_records = 16;  // force many chunks and periodic sweeps
    opt.flush_period_ms = 1;
    StreamWriter w(path, opt);
    const std::uint32_t name = w.intern("thread/adds");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&w, name] {
        for (int i = 0; i < 500; ++i) {
          Record r;
          r.kind = static_cast<std::uint8_t>(RecordKind::CounterAdd);
          r.name_id = name;
          r.payload = i64_bits(1);
          w.publish(&r, 1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    w.finish();
  }
  const LoadedLog log = load_stream(path);
  ASSERT_EQ(log.records.size(), 2000u);
  EXPECT_TRUE(check_log(log).ok()) << check_log(log).to_string();
  std::set<std::uint64_t> seqs;
  for (const Record& r : log.records) seqs.insert(r.seq);
  EXPECT_EQ(seqs.size(), 2000u);
  EXPECT_EQ(*seqs.rbegin(), 1999u);
  EXPECT_EQ(reconstruct(log).metrics.counters.at("thread/adds"), 2000);
}

// ---- registry integration ----

/// Records a small instrumented workload: two tracks, nested spans with
/// args and post-construction annotations, counters, gauges.
void record_workload(obs::Registry& r) {
  const std::uint32_t t0 = r.track("host", "main");
  const std::uint32_t t1 = r.track("sim:layer0", "LoopT bursts");
  r.begin(t0, "compile", 10.0, "compiler", {{"layer", "conv1"}});
  obs::count("compiler/layers", 2);
  r.begin(t0, "schedule", 11.0, "compiler");
  r.annotate(t0, "budget", "8000");
  r.end(t0, 14.0);
  r.end(t0, 15.5);
  r.begin(t1, "burst", 100.0, "sim");
  obs::count("sim/bursts");
  r.end(t1, 140.0);
  obs::gauge("host/frame_seconds", 0.25);
  {
    // Own track: wall-clock timestamps must not interleave with the fixed
    // virtual timestamps the explicit begin()/end() calls above use.
    obs::ScopedSpan span("serve", "enqueue", {}, "client-0");
    span.add_arg("request", "7");
  }
}

TEST_F(ObsStreamTest, LogDerivedExportsAreByteIdenticalToLiveOnes) {
  const std::string path = log_path("obs_stream_registry.stream");
  obs::set_enabled(true, path);
  obs::Registry& r = obs::Registry::global();
  record_workload(r);
  const std::string live_metrics = r.metrics_json();

  const StreamStats s = r.detach_stream();
  EXPECT_GT(s.records, 0u);
  EXPECT_GT(s.bytes_written, 0u);

  const LoadedLog log = load_stream(path);
  EXPECT_TRUE(check_log(log).ok()) << check_log(log).to_string();
  const ReconstructedLog rec = reconstruct(log);
  EXPECT_EQ(obs::render_metrics_json(rec.metrics), live_metrics);

  // The trace holds every span the workload made, in order, with its args
  // and the annotation folded into its B event.
  ASSERT_EQ(rec.events.size(), 8u);
  EXPECT_EQ(r.event_count(), rec.events.size());
  std::string phases, names;
  for (const obs::TraceEvent& e : rec.events) {
    phases += e.ph;
    if (e.ph == 'B') names += e.name + " ";
  }
  EXPECT_EQ(phases, "BBEEBEBE");
  EXPECT_EQ(names, "compile schedule burst enqueue ");
  using Args = obs::SpanArgs;
  EXPECT_EQ(rec.events[0].args, (Args{{"layer", "conv1"}}));
  EXPECT_EQ(rec.events[1].args, (Args{{"budget", "8000"}}));
  EXPECT_EQ(rec.events[6].args, (Args{{"request", "7"}}));
  const std::vector<double> ts = {10.0, 11.0, 14.0, 15.5, 100.0, 140.0};
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(rec.events[i].ts, ts[i]) << i;
  ASSERT_EQ(rec.tracks.size(), 3u);
  EXPECT_EQ(rec.tracks[2].thread, "client-0");

  // Detaching recorded the writer-side accounting as registry counters
  // (never in the log: it was already closed when they were written).
  EXPECT_EQ(r.counter("obs/stream_records"),
            static_cast<std::int64_t>(s.records));
  EXPECT_GT(r.counter("obs/stream_bytes"), 0);
  EXPECT_EQ(rec.metrics.counters.count("obs/stream_records"), 0u);
}

TEST_F(ObsStreamTest, SetEnabledOverloadAttachesAndDetaches) {
  const std::string path = log_path("obs_stream_enable.stream");
  obs::Registry& r = obs::Registry::global();
  EXPECT_FALSE(r.stream_attached());
  obs::set_enabled(true, path);
  EXPECT_TRUE(r.stream_attached());
  obs::count("x/y");
  obs::set_enabled(false);  // detaches and finishes the log
  EXPECT_FALSE(r.stream_attached());
  const LoadedLog log = load_stream(path);
  EXPECT_TRUE(check_log(log).ok());
  EXPECT_EQ(reconstruct(log).metrics.counters.at("x/y"), 1);

  // Empty path = counters and gauges only, exactly like set_enabled(on).
  obs::set_enabled(true, "");
  EXPECT_FALSE(r.stream_attached());
}

TEST_F(ObsStreamTest, AttachmentSnapshotsExistingScalarState) {
  const std::string path = log_path("obs_stream_snapshot.stream");
  obs::set_enabled(true);
  obs::Registry& r = obs::Registry::global();
  const std::uint32_t t = r.track("host", "main");
  obs::count("pre/existing", 5);
  obs::gauge("pre/gauge", 1.5);

  obs::set_enabled(true, path);  // attach mid-run
  r.begin(t, "late", 50.0, "test");
  r.end(t, 60.0);
  r.detach_stream();

  const ReconstructedLog rec = reconstruct(load_stream(path));
  EXPECT_EQ(rec.metrics.counters.at("pre/existing"), 5);
  EXPECT_DOUBLE_EQ(rec.metrics.gauges.at("pre/gauge"), 1.5);
  ASSERT_EQ(rec.tracks.size(), 1u);  // pre-registered track replayed
  EXPECT_EQ(rec.tracks[0].process, "host");
  ASSERT_EQ(rec.events.size(), 2u);  // but pre-attachment events are not
  EXPECT_EQ(rec.events[0].name, "late");
}

TEST_F(ObsStreamTest, ConcurrentScopedSpansThroughRegistryCheckClean) {
  const ReconstructedLog rec = record_log([] {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([t] {
        obs::set_thread_track_name("worker-" + std::to_string(t));
        for (int i = 0; i < 200; ++i) {
          obs::ScopedSpan span("test", "tick");
          span.add_arg("i", std::to_string(i));
          obs::count("mt/ticks");
        }
      });
    }
    for (std::thread& t : threads) t.join();
  });
  EXPECT_EQ(rec.tracks.size(), 4u);
  EXPECT_EQ(rec.events.size(), 1600u);
  EXPECT_EQ(obs::Registry::global().event_count(), 1600u);
  EXPECT_EQ(rec.metrics.counters.at("mt/ticks"), 800);
}

TEST_F(ObsStreamTest, TransactionsReconstructFromServeShapedSpans) {
  const std::string path = log_path("obs_stream_txn.stream");
  obs::set_enabled(true, path);
  obs::Registry& r = obs::Registry::global();
  const std::uint32_t client = r.track("host", "client-0");
  const std::uint32_t worker = r.track("host", "serve-0");

  r.begin(client, "enqueue", 10.0, "serve");
  r.annotate(client, "request", "1");
  r.end(client, 12.0);
  r.begin(client, "enqueue", 13.0, "serve");
  r.annotate(client, "request", "2");
  r.annotate(client, "rejected", "queue_full");
  r.end(client, 13.5);

  r.begin(worker, "execute", 21.0, "serve", {{"request", "1"}});
  r.end(worker, 30.0);
  r.detach_stream();

  const std::vector<Transaction> txns =
      reconstruct_transactions(reconstruct(load_stream(path)));
  ASSERT_EQ(txns.size(), 2u);
  const Transaction& ok = txns[0].request == 1 ? txns[0] : txns[1];
  EXPECT_TRUE(ok.has_enqueue);
  EXPECT_TRUE(ok.has_execute);
  EXPECT_DOUBLE_EQ(ok.enqueue_ts, 10.0);
  EXPECT_DOUBLE_EQ(ok.enqueue_dur, 2.0);
  EXPECT_DOUBLE_EQ(ok.execute_ts, 21.0);
  EXPECT_DOUBLE_EQ(ok.execute_dur, 9.0);
  EXPECT_TRUE(ok.reject_reason.empty());
  const Transaction& rej = txns[0].request == 2 ? txns[0] : txns[1];
  EXPECT_EQ(rej.request, 2u);
  EXPECT_EQ(rej.reject_reason, "queue_full");
  EXPECT_FALSE(rej.has_execute);
}

TEST_F(ObsStreamTest, HexDumpFormatsOffsetsBytesAndAscii) {
  std::string bytes = "FTDLSTRM";
  bytes.push_back('\x01');
  bytes.push_back('\x00');
  const std::string dump = format_hex_dump(bytes);
  EXPECT_EQ(dump,
            "00000000  46 54 44 4c 53 54 52 4d  01 00                    "
            "|FTDLSTRM..|\n");
}

}  // namespace
