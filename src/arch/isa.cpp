#include "arch/isa.h"

#include <charconv>

#include "common/error.h"
#include "common/str_util.h"

namespace ftdl::arch {

namespace {
constexpr std::uint64_t kImmMask = (std::uint64_t{1} << 48) - 1;
}

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::Nop: return "nop";
    case Opcode::SetLoop: return "set_loop";
    case Opcode::SetActTile: return "set_act_tile";
    case Opcode::SetPsumTile: return "set_psum_tile";
    case Opcode::SetPsumMode: return "set_psum_mode";
    case Opcode::SetWeightBase: return "set_weight_base";
    case Opcode::Launch: return "launch";
    case Opcode::Barrier: return "barrier";
  }
  return "?";
}

std::string Instruction::to_string() const {
  return strformat("%s f=%u imm=%llu", ftdl::arch::to_string(op), field,
                   static_cast<unsigned long long>(imm));
}

bool field_is_valid(Opcode op, std::uint8_t field) {
  switch (op) {
    case Opcode::SetLoop:
      return field <= static_cast<std::uint8_t>(TemporalLevel::T);
    case Opcode::SetPsumMode:
      return field <= 1;
    default:
      return field == 0;
  }
}

std::uint64_t encode(const Instruction& inst) {
  if (inst.imm > kImmMask)
    throw Error("instruction immediate exceeds 48 bits: " + inst.to_string());
  if (!field_is_valid(inst.op, inst.field))
    throw Error("field value out of range for opcode: " + inst.to_string());
  return (std::uint64_t{static_cast<std::uint8_t>(inst.op)} << 56) |
         (std::uint64_t{inst.field} << 48) | inst.imm;
}

Instruction decode(std::uint64_t word) {
  const auto opcode = static_cast<std::uint8_t>(word >> 56);
  if (opcode > static_cast<std::uint8_t>(Opcode::Barrier))
    throw Error("unknown opcode in InstBUS word: " + std::to_string(opcode));
  Instruction inst;
  inst.op = static_cast<Opcode>(opcode);
  inst.field = static_cast<std::uint8_t>(word >> 48);
  inst.imm = word & kImmMask;
  return inst;
}

Instruction set_loop(TemporalLevel level, std::uint64_t trip) {
  return Instruction{Opcode::SetLoop, static_cast<std::uint8_t>(level), trip};
}
Instruction set_act_tile(std::uint64_t words) {
  return Instruction{Opcode::SetActTile, 0, words};
}
Instruction set_psum_tile(std::uint64_t words) {
  return Instruction{Opcode::SetPsumTile, 0, words};
}
Instruction set_psum_mode(bool accumulate) {
  return Instruction{Opcode::SetPsumMode, accumulate ? std::uint8_t{1} : std::uint8_t{0}, 0};
}
Instruction set_weight_base(std::uint64_t addr) {
  return Instruction{Opcode::SetWeightBase, 0, addr};
}
Instruction launch() { return Instruction{Opcode::Launch, 0, 0}; }
Instruction barrier() { return Instruction{Opcode::Barrier, 0, 0}; }

std::uint64_t parse_word(const std::string& token) {
  std::uint64_t word = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, word, 16);
  if (ptr != end || ec != std::errc{})
    throw Error("not a hex InstBUS word: " + token);
  return word;
}

InstStream decode_stream(const std::vector<std::uint64_t>& words) {
  InstStream out;
  out.reserve(words.size());
  for (std::uint64_t w : words) out.push_back(decode(w));
  return out;
}

std::string disassemble(const InstStream& stream) {
  std::string out;
  for (const Instruction& inst : stream) {
    out += inst.to_string();
    out += '\n';
  }
  return out;
}

ControllerState interpret_stream(const InstStream& stream) {
  ControllerState st;
  bool saw_barrier = false;
  for (const Instruction& inst : stream) {
    if (saw_barrier) throw Error("instructions after Barrier");
    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::SetLoop:
        if (st.launched) throw Error("SetLoop after Launch");
        if (inst.imm == 0) throw Error("zero loop trip count");
        switch (static_cast<TemporalLevel>(inst.field)) {
          case TemporalLevel::X: st.x_trip = inst.imm; break;
          case TemporalLevel::L: st.l_trip = inst.imm; break;
          case TemporalLevel::T: st.t_trip = inst.imm; break;
          default: throw Error("unknown temporal level in SetLoop");
        }
        break;
      case Opcode::SetActTile:
        st.act_tile_words = inst.imm;
        break;
      case Opcode::SetPsumTile:
        st.psum_tile_words = inst.imm;
        break;
      case Opcode::SetPsumMode:
        st.psum_accumulate = inst.field != 0;
        break;
      case Opcode::SetWeightBase:
        st.weight_base = inst.imm;
        break;
      case Opcode::Launch:
        if (st.launched) throw Error("double Launch");
        st.launched = true;
        break;
      case Opcode::Barrier:
        if (!st.launched) throw Error("Barrier before Launch");
        saw_barrier = true;
        break;
    }
  }
  if (!saw_barrier) throw Error("stream missing Barrier");
  return st;
}

}  // namespace ftdl::arch
