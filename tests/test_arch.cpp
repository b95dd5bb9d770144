// Tests for the overlay configuration and the controller ISA.
#include <gtest/gtest.h>

#include "arch/isa.h"
#include "arch/overlay_config.h"
#include "common/error.h"
#include "fpga/device_zoo.h"

namespace ftdl::arch {
namespace {

TEST(OverlayConfig, PaperConfigIsValidOnVu125) {
  const OverlayConfig c = paper_config();
  EXPECT_EQ(c.tpes(), 1200);
  EXPECT_EQ(c.superblocks(), 100);
  EXPECT_EQ(c.pipeline_latency(), 12 + 6);
  EXPECT_NO_THROW(c.validate_for_device(fpga::ultrascale_vu125()));
}

TEST(OverlayConfig, DoubleBufferingHalvesUsableCapacity) {
  const OverlayConfig c = paper_config();
  EXPECT_EQ(c.actbuf_usable(), c.actbuf_words / 2);
  EXPECT_EQ(c.psumbuf_usable(), c.psumbuf_words / 2);
}

TEST(OverlayConfig, DramBandwidthPerCycle) {
  OverlayConfig c = paper_config();
  // 26 GB/s at 650 MHz -> 40 bytes per CLKh cycle.
  EXPECT_NEAR(c.dram_rd_bytes_per_cycle(), 40.0, 1e-9);
}

TEST(OverlayConfig, ValidationRejectsBadShapes) {
  OverlayConfig c = paper_config();
  c.actbuf_words = 32;  // below the distributed-RAM range
  EXPECT_THROW(c.validate(), ConfigError);

  c = paper_config();
  c.psumbuf_words = 512;
  EXPECT_THROW(c.validate(), ConfigError);

  c = paper_config();
  c.d2 = 99;
  EXPECT_THROW(c.validate_for_device(fpga::ultrascale_vu125()), ConfigError);

  c = paper_config();
  c.clocks = fpga::ClockPair::from_high(900e6);  // above DSP fmax
  EXPECT_THROW(c.validate_for_device(fpga::ultrascale_vu125()), ConfigError);
}

TEST(OverlayConfig, SingleClockModeBoundByBram) {
  OverlayConfig c = paper_config();
  c.double_pump = false;
  c.clocks = fpga::ClockPair::from_high(528e6);
  // validate_for_device only checks the BRAM ceiling in single-clock mode.
  EXPECT_NO_THROW(c.validate_for_device(fpga::ultrascale_vu125()));
  c.clocks = fpga::ClockPair::from_high(600e6);
  EXPECT_THROW(c.validate_for_device(fpga::ultrascale_vu125()), ConfigError);
}

TEST(Isa, EncodeDecodeRoundtrip) {
  const InstStream stream = {
      set_loop(TemporalLevel::X, 12),  set_loop(TemporalLevel::L, 34),
      set_loop(TemporalLevel::T, 56),  set_act_tile(128),
      set_psum_tile(1024),             set_psum_mode(true),
      set_weight_base(777),            launch(),
      barrier(),
  };
  for (const Instruction& inst : stream) {
    EXPECT_EQ(decode(encode(inst)), inst) << inst.to_string();
  }
}

TEST(Isa, ImmediateWidthIsChecked) {
  Instruction inst = set_act_tile((std::uint64_t{1} << 48));
  EXPECT_THROW(encode(inst), Error);
  inst = set_act_tile((std::uint64_t{1} << 48) - 1);
  EXPECT_NO_THROW(encode(inst));
}

TEST(Isa, DecodeRejectsUnknownOpcode) {
  EXPECT_THROW(decode(std::uint64_t{0xFF} << 56), Error);
}

TEST(Isa, ParseWordIsStrict) {
  EXPECT_EQ(parse_word("0102000000000023"), 0x0102000000000023ULL);
  EXPECT_EQ(parse_word("FFffFFffFFffFFff"), ~0ULL);
  EXPECT_EQ(parse_word("7"), 7u);
  for (const char* bad : {"", "0x12", "-1", "+1", " 12", "12 ", "12zz", "g",
                          "10000000000000000"}) {
    EXPECT_THROW(parse_word(bad), Error) << "'" << bad << "'";
  }
}

TEST(Isa, EncodeRejectsOutOfRangeFields) {
  // SetLoop only defines temporal levels 0-2.
  EXPECT_THROW(encode(Instruction{Opcode::SetLoop, 3, 1}), Error);
  // SetPsumMode is a flag.
  EXPECT_THROW(encode(Instruction{Opcode::SetPsumMode, 2, 0}), Error);
  // Every other opcode requires field = 0.
  EXPECT_THROW(encode(Instruction{Opcode::SetActTile, 1, 8}), Error);
  EXPECT_THROW(encode(Instruction{Opcode::Launch, 9, 0}), Error);
  // The defined values still encode.
  EXPECT_NO_THROW(encode(Instruction{Opcode::SetLoop, 2, 1}));
  EXPECT_NO_THROW(encode(Instruction{Opcode::SetPsumMode, 1, 0}));
}

TEST(Isa, FieldValidityTable) {
  EXPECT_TRUE(field_is_valid(Opcode::SetLoop, 0));
  EXPECT_TRUE(field_is_valid(Opcode::SetLoop, 2));
  EXPECT_FALSE(field_is_valid(Opcode::SetLoop, 3));
  EXPECT_TRUE(field_is_valid(Opcode::SetPsumMode, 1));
  EXPECT_FALSE(field_is_valid(Opcode::SetPsumMode, 2));
  EXPECT_TRUE(field_is_valid(Opcode::Barrier, 0));
  EXPECT_FALSE(field_is_valid(Opcode::Barrier, 1));
}

TEST(Isa, FieldsSurviveEncoding) {
  const Instruction inst = set_loop(TemporalLevel::T, 123456789ULL);
  const Instruction back = decode(encode(inst));
  EXPECT_EQ(back.op, Opcode::SetLoop);
  EXPECT_EQ(back.field, static_cast<std::uint8_t>(TemporalLevel::T));
  EXPECT_EQ(back.imm, 123456789ULL);
}

TEST(Isa, InterpretStreamBuildsControllerState) {
  const InstStream stream = {
      set_loop(TemporalLevel::X, 7),  set_loop(TemporalLevel::L, 3),
      set_loop(TemporalLevel::T, 64), set_act_tile(48),
      set_psum_tile(512),             set_psum_mode(true),
      set_weight_base(128),           launch(),
      barrier(),
  };
  const ControllerState st = interpret_stream(stream);
  EXPECT_EQ(st.x_trip, 7u);
  EXPECT_EQ(st.l_trip, 3u);
  EXPECT_EQ(st.t_trip, 64u);
  EXPECT_EQ(st.act_tile_words, 48u);
  EXPECT_EQ(st.psum_tile_words, 512u);
  EXPECT_TRUE(st.psum_accumulate);
  EXPECT_EQ(st.weight_base, 128u);
  EXPECT_TRUE(st.launched);
}

TEST(Isa, InterpretStreamRejectsMalformedStreams) {
  // Missing Barrier.
  EXPECT_THROW(interpret_stream({set_loop(TemporalLevel::X, 1), launch()}),
               Error);
  // Barrier before Launch.
  EXPECT_THROW(interpret_stream({barrier()}), Error);
  // Configuration after Launch.
  EXPECT_THROW(
      interpret_stream({launch(), set_loop(TemporalLevel::X, 2), barrier()}),
      Error);
  // Zero trip count.
  EXPECT_THROW(
      interpret_stream({set_loop(TemporalLevel::T, 0), launch(), barrier()}),
      Error);
  // Double Launch.
  EXPECT_THROW(interpret_stream({launch(), launch(), barrier()}), Error);
  // Instructions after Barrier.
  EXPECT_THROW(interpret_stream({launch(), barrier(), launch()}), Error);
}

TEST(Isa, DecodeStreamAndDisassemble) {
  const InstStream stream = {set_act_tile(99), launch(), barrier()};
  std::vector<std::uint64_t> words;
  for (const auto& inst : stream) words.push_back(encode(inst));
  EXPECT_EQ(decode_stream(words), stream);
  const std::string text = disassemble(stream);
  EXPECT_NE(text.find("set_act_tile"), std::string::npos);
  EXPECT_NE(text.find("imm=99"), std::string::npos);
}

}  // namespace
}  // namespace ftdl::arch
