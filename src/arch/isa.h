// Controller instruction set.
//
// Before a layer executes, the compiler streams configuration instructions
// over the InstBUS to every SuperBlock-row Controller (Sec. III-B). The
// Controller decodes them into loop trip counts and buffer tile sizes, then
// a Launch instruction starts the periodic control flow of Listing 1.
//
// Encoding: one 64-bit word per instruction —
//   [63:56] opcode | [55:48] field | [47:0] immediate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftdl::arch {

enum class Opcode : std::uint8_t {
  Nop = 0,
  SetLoop = 1,       ///< field = temporal level (0=X,1=L,2=T), imm = trip count
  SetActTile = 2,    ///< imm = ActBUF words loaded per LoopL refill
  SetPsumTile = 3,   ///< imm = PSumBUF entries written back per LoopX step
  SetPsumMode = 4,   ///< field: 0 = overwrite, 1 = accumulate (multi-pass)
  SetWeightBase = 5, ///< imm = WBUF base address for this layer's tile
  Launch = 6,        ///< start execution with the configured state
  Barrier = 7,       ///< wait until all SuperBlocks in the row drain
};

const char* to_string(Opcode op);

/// Temporal-loop selector for SetLoop.
enum class TemporalLevel : std::uint8_t { X = 0, L = 1, T = 2 };

struct Instruction {
  Opcode op = Opcode::Nop;
  std::uint8_t field = 0;
  std::uint64_t imm = 0;  ///< 48-bit immediate

  bool operator==(const Instruction&) const = default;

  std::string to_string() const;
};

/// True when `field` is a defined value for `op`: SetLoop takes a
/// TemporalLevel (0-2), SetPsumMode a flag (0/1), every other opcode
/// requires field = 0.
bool field_is_valid(Opcode op, std::uint8_t field);

/// Packs an instruction into its 64-bit InstBUS word; throws ftdl::Error on
/// an immediate exceeding 48 bits or a field value undefined for the
/// opcode (see field_is_valid).
std::uint64_t encode(const Instruction& inst);

/// Decodes an InstBUS word; throws ftdl::Error on an unknown opcode. An
/// oversize immediate is impossible by construction here — the word only
/// carries 48 immediate bits — so that check lives in encode() instead.
/// Undefined field values decode verbatim; ftdl::verify flags them.
Instruction decode(std::uint64_t word);

/// Parses one InstBUS word as artifacts and dumps write it: hex digits only
/// (no sign, prefix or surrounding text) with a value that fits 64 bits.
/// Throws ftdl::Error quoting the token otherwise.
std::uint64_t parse_word(const std::string& token);

/// Convenience builders.
Instruction set_loop(TemporalLevel level, std::uint64_t trip);
Instruction set_act_tile(std::uint64_t words);
Instruction set_psum_tile(std::uint64_t words);
Instruction set_psum_mode(bool accumulate);
Instruction set_weight_base(std::uint64_t addr);
Instruction launch();
Instruction barrier();

/// A per-row instruction stream.
using InstStream = std::vector<Instruction>;

/// Decodes a whole stream of InstBUS words.
InstStream decode_stream(const std::vector<std::uint64_t>& words);

/// Human-readable disassembly, one instruction per line.
std::string disassemble(const InstStream& stream);

/// The controller's architectural state after consuming a configuration
/// stream (what the Launch instruction will execute).
struct ControllerState {
  std::uint64_t x_trip = 1, l_trip = 1, t_trip = 1;
  std::uint64_t act_tile_words = 0;
  std::uint64_t psum_tile_words = 0;
  bool psum_accumulate = false;
  std::uint64_t weight_base = 0;
  bool launched = false;
};

/// Decodes and applies a stream; throws ftdl::Error on malformed streams
/// (Launch before configuration, unknown fields, missing Barrier).
ControllerState interpret_stream(const InstStream& stream);

}  // namespace ftdl::arch
