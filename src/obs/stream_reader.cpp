#include "obs/stream_reader.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/error.h"
#include "common/file_io.h"

namespace ftdl::obs::stream {

namespace {

LoadedLog parse_stream_bytes(const std::string& bytes,
                             const std::string& origin) {
  LoadedLog log;
  log.file_bytes = bytes.size();
  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < kFileHeaderBytes ||
      std::memcmp(data, kFileMagic, sizeof(kFileMagic)) != 0)
    throw Error(origin + ": not an ftdl-stream file (bad magic)");
  log.version = get_u32(data + 8);
  if (log.version != kFormatVersion)
    throw Error(origin + ": unsupported ftdl-stream version " +
                std::to_string(log.version));
  const std::uint32_t header_bytes = get_u32(data + 12);
  if (header_bytes < kFileHeaderBytes || header_bytes > bytes.size())
    throw Error(origin + ": corrupt file header");

  std::size_t off = header_bytes;
  while (off < bytes.size()) {
    if (bytes.size() - off < kChunkHeaderBytes) {
      log.truncated = true;
      log.truncation_offset = off;
      break;
    }
    const ChunkHeader h = decode_chunk_header(data + off);
    if (h.magic != kChunkMagic) {
      // Not a chunk boundary: unrecoverable framing damage. Everything
      // before this offset has already been validated, so stop here.
      log.errors.push_back(origin + ": bad chunk magic at offset " +
                           std::to_string(off));
      log.truncated = true;
      log.truncation_offset = off;
      break;
    }
    if (bytes.size() - off - kChunkHeaderBytes < h.payload_bytes) {
      log.truncated = true;
      log.truncation_offset = off;
      break;
    }
    const unsigned char* payload = data + off + kChunkHeaderBytes;
    const std::uint32_t crc = crc32(payload, h.payload_bytes);
    if (crc != h.crc32) {
      log.errors.push_back(origin + ": CRC mismatch in chunk " +
                           std::to_string(h.chunk_seq) + " at offset " +
                           std::to_string(off));
      off += kChunkHeaderBytes + h.payload_bytes;
      continue;
    }
    LoadedChunk lc;
    lc.header = h;
    lc.file_offset = off;
    log.chunks.push_back(lc);
    switch (static_cast<ChunkKind>(h.kind)) {
      case ChunkKind::Data: {
        if (std::uint64_t(h.count) * kRecordBytes != h.payload_bytes) {
          log.errors.push_back(origin + ": record count disagrees with " +
                               "payload size in chunk " +
                               std::to_string(h.chunk_seq));
          break;
        }
        for (std::uint32_t i = 0; i < h.count; ++i)
          log.records.push_back(decode_record(payload + i * kRecordBytes));
        break;
      }
      case ChunkKind::Strings: {
        std::size_t p = 0;
        for (std::uint32_t i = 0; i < h.count; ++i) {
          if (h.payload_bytes - p < 8) {
            log.errors.push_back(origin + ": short string entry in chunk " +
                                 std::to_string(h.chunk_seq));
            break;
          }
          const std::uint32_t id = get_u32(payload + p);
          const std::uint32_t len = get_u32(payload + p + 4);
          p += 8;
          if (h.payload_bytes - p < len) {
            log.errors.push_back(origin + ": string overruns chunk " +
                                 std::to_string(h.chunk_seq));
            break;
          }
          log.strings[id] = std::string(
              reinterpret_cast<const char*>(payload + p), len);
          p += len;
        }
        break;
      }
      default:
        // Forward compatibility: unknown chunk kinds are framed the same
        // way (length-prefixed, CRC-checked) and are skipped, not errors.
        break;
    }
    off += kChunkHeaderBytes + h.payload_bytes;
  }
  return log;
}

std::string lookup(const std::map<std::uint32_t, std::string>& strings,
                   std::uint32_t id) {
  if (id == 0) return "";
  auto it = strings.find(id);
  return it == strings.end() ? "" : it->second;
}

std::vector<Record> records_in_seq_order(const LoadedLog& log) {
  std::vector<Record> sorted = log.records;
  std::sort(sorted.begin(), sorted.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return sorted;
}

}  // namespace

LoadedLog load_stream(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes) throw Error("cannot open " + path + " for reading");
  return parse_stream_bytes(*bytes, path);
}

ReconstructedLog reconstruct(const LoadedLog& log) {
  ReconstructedLog out;
  const std::vector<Record> sorted = records_in_seq_order(log);
  // Per-track stack of indexes into out.events of open SpanBegins.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> open;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Record& r = sorted[i];
    switch (static_cast<RecordKind>(r.kind)) {
      case RecordKind::TrackDef: {
        if (out.tracks.size() <= r.track)
          out.tracks.resize(r.track + 1);
        TrackNames& t = out.tracks[r.track];
        t.process = lookup(log.strings, r.name_id);
        t.thread = lookup(log.strings, r.aux_id);
        t.pid = static_cast<std::uint32_t>(r.payload >> 32);
        t.tid = static_cast<std::uint32_t>(r.payload & 0xFFFFFFFFu);
        break;
      }
      case RecordKind::SpanBegin: {
        TraceEvent e;
        e.ph = 'B';
        e.name = lookup(log.strings, r.name_id);
        e.cat = lookup(log.strings, r.aux_id);
        e.ts = bits_double(r.payload);
        if (r.track < out.tracks.size()) {
          e.pid = out.tracks[r.track].pid;
          e.tid = out.tracks[r.track].tid;
        }
        for (std::uint8_t a = 0; a < r.argc && i + 1 < sorted.size(); ++a) {
          const Record& arg = sorted[i + 1];
          if (static_cast<RecordKind>(arg.kind) != RecordKind::SpanArg)
            break;
          e.args.emplace_back(lookup(log.strings, arg.name_id),
                              lookup(log.strings, arg.aux_id));
          ++i;
        }
        open[r.track].push_back(out.events.size());
        out.events.push_back(std::move(e));
        break;
      }
      case RecordKind::Annotate: {
        auto& stack = open[r.track];
        if (!stack.empty()) {
          out.events[stack.back()].args.emplace_back(
              lookup(log.strings, r.name_id),
              lookup(log.strings, r.aux_id));
        }
        break;
      }
      case RecordKind::SpanEnd: {
        TraceEvent e;
        e.ph = 'E';
        e.ts = bits_double(r.payload);
        if (r.track < out.tracks.size()) {
          e.pid = out.tracks[r.track].pid;
          e.tid = out.tracks[r.track].tid;
        }
        auto& stack = open[r.track];
        if (!stack.empty()) stack.pop_back();
        out.events.push_back(std::move(e));
        break;
      }
      case RecordKind::CounterAdd:
        out.metrics.counters[lookup(log.strings, r.name_id)] +=
            bits_i64(r.payload);
        break;
      case RecordKind::GaugeSet:
        out.metrics.gauges[lookup(log.strings, r.name_id)] =
            bits_double(r.payload);
        break;
      case RecordKind::SpanArg:  // consumed by its SpanBegin; orphans skip
      default:
        break;
    }
  }
  return out;
}

CheckReport check_log(const LoadedLog& log) {
  CheckReport rep;
  rep.records_checked = log.records.size();
  auto problem = [&](const char* kind, std::string detail,
                     std::uint64_t seq = 0) {
    rep.problems.push_back(CheckProblem{kind, std::move(detail), seq});
  };

  for (const std::string& e : log.errors) problem("chunk_damage", e);

  // Record sequence contiguity: the writer stamps every published record
  // from one atomic counter, so a complete log covers exactly [0, N).
  std::vector<std::uint64_t> seqs;
  seqs.reserve(log.records.size());
  for (const Record& r : log.records) seqs.push_back(r.seq);
  std::sort(seqs.begin(), seqs.end());
  std::uint64_t first_missing = seqs.size();
  bool gap = false;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (seqs[i] != i) {
      first_missing = i;
      gap = true;
      break;
    }
  }
  if (gap) {
    problem("missing_record_seq",
            "record sequence " + std::to_string(first_missing) +
                " is missing (first gap; events were lost)",
            first_missing);
  }

  if (log.truncated) {
    problem("truncated",
            "log cut mid-chunk at byte offset " +
                std::to_string(log.truncation_offset) +
                "; first unrecovered record sequence is " +
                std::to_string(first_missing),
            first_missing);
  }

  // Chunk sequence contiguity (catches whole lost chunks even when every
  // surviving record seq happens to be contiguous).
  std::vector<std::uint64_t> cseqs;
  cseqs.reserve(log.chunks.size());
  for (const LoadedChunk& c : log.chunks) cseqs.push_back(c.header.chunk_seq);
  std::sort(cseqs.begin(), cseqs.end());
  for (std::size_t i = 0; i < cseqs.size(); ++i) {
    if (cseqs[i] != i) {
      if (!log.truncated && log.errors.empty()) {
        problem("missing_chunk_seq",
                "chunk sequence " + std::to_string(i) + " is missing", i);
      }
      break;
    }
  }

  // String resolution and SpanArg adjacency over the replay order.
  const std::vector<Record> sorted = records_in_seq_order(log);
  auto resolved = [&](std::uint32_t id) {
    return id == 0 || log.strings.count(id) != 0;
  };
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Record& r = sorted[i];
    if (!resolved(r.name_id) || !resolved(r.aux_id)) {
      problem("unresolved_string",
              "record seq " + std::to_string(r.seq) +
                  " references a string id missing from the table",
              r.seq);
    }
    if (static_cast<RecordKind>(r.kind) == RecordKind::SpanBegin) {
      for (std::uint8_t a = 0; a < r.argc; ++a) {
        const bool adjacent =
            i + 1 + a < sorted.size() &&
            static_cast<RecordKind>(sorted[i + 1 + a].kind) ==
                RecordKind::SpanArg &&
            sorted[i + 1 + a].seq == r.seq + 1 + a;
        if (!adjacent) {
          problem("detached_span_args",
                  "SpanBegin seq " + std::to_string(r.seq) + " declares " +
                      std::to_string(int(r.argc)) +
                      " args but they are not contiguous",
                  r.seq);
          break;
        }
      }
      i += r.argc;
    }
  }

  // Span balance and per-track timestamp monotonicity over the
  // reconstructed event list (the same invariants the Chrome-trace
  // exporter guarantees for the in-memory backend).
  const ReconstructedLog rec = reconstruct(log);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> depth;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> last_ts;
  for (std::size_t i = 0; i < rec.events.size(); ++i) {
    const TraceEvent& e = rec.events[i];
    const auto key = std::make_pair(e.pid, e.tid);
    auto it = last_ts.find(key);
    if (it != last_ts.end() && e.ts < it->second) {
      problem("nonmonotonic_ts",
              "timestamp went backwards on track " + std::to_string(e.pid) +
                  "/" + std::to_string(e.tid) + " at event " +
                  std::to_string(i),
              i);
    }
    last_ts[key] = e.ts;
    if (e.ph == 'B') {
      ++depth[key];
    } else if (depth[key] == 0) {
      problem("unbalanced_end",
              "SpanEnd with no open span on track " + std::to_string(e.pid) +
                  "/" + std::to_string(e.tid),
              i);
    } else {
      --depth[key];
    }
  }
  for (const auto& [key, d] : depth) {
    if (d != 0) {
      problem("unclosed_span",
              std::to_string(d) + " span(s) left open on track " +
                  std::to_string(key.first) + "/" +
                  std::to_string(key.second));
    }
  }
  return rep;
}

std::string CheckReport::to_string() const {
  std::string out;
  if (ok()) {
    out = "check: OK (" + std::to_string(records_checked) + " records)\n";
    return out;
  }
  for (const CheckProblem& p : problems) {
    out += "check: " + p.kind + ": " + p.detail + "\n";
  }
  out += "check: " + std::to_string(problems.size()) + " problem(s) over " +
         std::to_string(records_checked) + " records\n";
  return out;
}

std::vector<Transaction> reconstruct_transactions(const ReconstructedLog& r) {
  // One pass with per-track stacks of open B events; a span is read when
  // its E closes it.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>>
      stacks;
  std::map<std::uint64_t, Transaction> txns;

  auto arg_of = [](const TraceEvent& e, const char* key) -> const std::string* {
    for (const auto& [k, v] : e.args)
      if (k == key) return &v;
    return nullptr;
  };
  auto close_span = [&](const TraceEvent& b, double end_ts) {
    const std::string* req = arg_of(b, "request");
    if (!req) return;
    const std::uint64_t id = std::strtoull(req->c_str(), nullptr, 10);
    Transaction& t = txns[id];
    t.request = id;
    if (b.name == "enqueue") {
      t.has_enqueue = true;
      t.enqueue_ts = b.ts;
      t.enqueue_dur = end_ts - b.ts;
      if (const std::string* rej = arg_of(b, "rejected")) t.reject_reason = *rej;
    } else if (b.name == "execute") {
      t.has_execute = true;
      t.execute_ts = b.ts;
      t.execute_dur = end_ts - b.ts;
    }
  };

  for (std::size_t i = 0; i < r.events.size(); ++i) {
    const TraceEvent& e = r.events[i];
    auto& stack = stacks[std::make_pair(e.pid, e.tid)];
    if (e.ph == 'B') {
      stack.push_back(i);
    } else if (!stack.empty()) {
      close_span(r.events[stack.back()], e.ts);
      stack.pop_back();
    }
  }

  std::vector<Transaction> out;
  out.reserve(txns.size());
  for (auto& [id, t] : txns) out.push_back(std::move(t));
  return out;
}

std::string format_hex_dump(const std::string& bytes) {
  std::string out;
  char line[80];
  for (std::size_t off = 0; off < bytes.size(); off += 16) {
    const std::size_t n = std::min<std::size_t>(16, bytes.size() - off);
    int w = std::snprintf(line, sizeof(line), "%08zx  ", off);
    out.append(line, static_cast<std::size_t>(w));
    for (std::size_t i = 0; i < 16; ++i) {
      if (i < n) {
        w = std::snprintf(line, sizeof(line), "%02x ",
                          static_cast<unsigned char>(bytes[off + i]));
        out.append(line, static_cast<std::size_t>(w));
      } else {
        out += "   ";
      }
      if (i == 7) out += ' ';
    }
    out += " |";
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char c = static_cast<unsigned char>(bytes[off + i]);
      out += (c >= 0x20 && c < 0x7F) ? static_cast<char>(c) : '.';
    }
    out += "|\n";
  }
  return out;
}

}  // namespace ftdl::obs::stream
