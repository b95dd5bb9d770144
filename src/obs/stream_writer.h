// Streaming event-log writer — the publishing half of ftdl-stream-v1, the
// one place the obs Registry stores spans (byte layout in stream_format.h,
// spec in docs/obs-stream-format.md).
//
// Architecture: a lock-light pubsub split. Instrumented threads *publish*
// fixed-size records into a per-thread chunk buffer (their Channel); a
// single background *serializer* thread turns sealed chunks into
// length-prefixed, CRC-protected chunks appended to the log file. The
// publish fast path touches only the calling thread's channel mutex —
// uncontended except at the instant the serializer sweeps that channel —
// so publishing threads never wait on each other and never perform file
// I/O, allocation amortizes to the chunk granularity, and a server under
// sustained load records every event: nothing is capped or dropped.
//
// Ordering: every record is stamped with a global sequence number from one
// atomic counter at publish time. Chunks from different threads reach the
// file in seal order, not record order; the reader re-establishes the
// total publish order by sorting on the record sequence and proves
// completeness by checking both the chunk and record sequences are
// contiguous from 0.
//
// Lifecycle: publish() after finish() is a counted no-op (never a crash,
// never blocking); finish() — idempotent, also run by the destructor —
// sweeps every channel's partial chunk, drains the serializer queue,
// flushes and closes the file. The caller must guarantee no publish() is
// *concurrent* with destruction (the obs Registry detaches the writer
// before dropping it; see obs.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/stream_format.h"

namespace ftdl::obs::stream {

struct StreamWriterOptions {
  /// Records per data chunk (64 KiB of payload at the default). Smaller
  /// chunks lower the crash-loss window; larger chunks amortize better.
  std::size_t chunk_records = 2048;
  /// Serializer sweep period: even idle channels with a partial chunk are
  /// sealed and written this often, bounding log-tail staleness. 0 writes
  /// only on full chunks and finish() (used by deterministic tests).
  std::int64_t flush_period_ms = 100;
};

/// Writer-side accounting (monotonic; a consistent snapshot via stats()).
struct StreamStats {
  std::uint64_t records = 0;          ///< data records written to the file
  std::uint64_t data_chunks = 0;
  std::uint64_t string_chunks = 0;
  std::uint64_t strings = 0;          ///< interned string-table entries
  std::uint64_t bytes_written = 0;    ///< file size including headers
  std::uint64_t dropped_after_finish = 0;  ///< publishes after finish()
};

class StreamWriter {
 public:
  /// Opens `path` for writing (truncating) and starts the serializer
  /// thread. Throws ftdl::Error when the file cannot be opened.
  explicit StreamWriter(std::string path, StreamWriterOptions opt = {});
  ~StreamWriter();
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Interns `s` into the log's string table and returns its non-zero id.
  /// Ids are assigned in first-intern order; the serializer writes each
  /// new entry in a Strings chunk before any Data chunk referencing it.
  std::uint32_t intern(const std::string& s);

  /// Publishes `n` records as one atomic group: they receive contiguous
  /// sequence numbers and land in the same chunk (a SpanBegin and its
  /// SpanArgs always travel together). Returns the first sequence number.
  /// `n` must be <= chunk_records. Thread-safe; after finish() the group
  /// is dropped and counted in dropped_after_finish.
  std::uint64_t publish(const Record* records, std::size_t n);

  /// Seals every channel's partial chunk, drains and joins the
  /// serializer, flushes and closes the file. Idempotent.
  void finish();

  StreamStats stats() const;
  const std::string& path() const { return path_; }

 private:
  struct Channel {
    std::uint32_t id = 0;
    Mutex mu;
    std::vector<Record> buf FTDL_GUARDED_BY(mu);
  };

  struct SealedChunk {
    std::uint32_t writer_thread = 0;
    std::vector<Record> records;
  };

  Channel* channel_for_this_thread();
  void seal_locked(Channel& ch) FTDL_REQUIRES(ch.mu);
  void serializer_loop();
  void write_pending_strings();
  void write_data_chunk(const SealedChunk& c);
  void append(const std::string& bytes);

  const std::string path_;
  const StreamWriterOptions opt_;
  const std::uint64_t writer_id_;  ///< distinguishes thread-local caches
  std::FILE* file_ = nullptr;

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<bool> finished_{false};
  std::atomic<std::uint64_t> dropped_after_finish_{0};

  mutable Mutex channels_mu_;
  std::vector<std::unique_ptr<Channel>> channels_
      FTDL_GUARDED_BY(channels_mu_);

  mutable Mutex strings_mu_;
  std::unordered_map<std::string, std::uint32_t> interned_
      FTDL_GUARDED_BY(strings_mu_);
  std::vector<std::pair<std::uint32_t, std::string>> pending_strings_
      FTDL_GUARDED_BY(strings_mu_);

  mutable Mutex queue_mu_;
  CondVar queue_cv_;
  std::vector<SealedChunk> queue_ FTDL_GUARDED_BY(queue_mu_);
  bool stopping_ FTDL_GUARDED_BY(queue_mu_) = false;

  // Serializer-thread state: chunk_seq_ and the FILE* are touched only by
  // the serializer (and by finish() after the join), so they need no lock.
  std::uint64_t chunk_seq_ = 0;

  mutable Mutex stats_mu_;
  StreamStats stats_ FTDL_GUARDED_BY(stats_mu_);

  std::thread serializer_;
};

}  // namespace ftdl::obs::stream
