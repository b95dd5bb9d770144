// Tests for the network-spec parser.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "frontend/spec_parser.h"

namespace ftdl::frontend {
namespace {

constexpr const char* kTinySpec = R"(
# a LeNet-ish toy
network toy
input 1 28 28
conv c1 out=6 k=5 pad=2
pool p1 k=2
conv c2 out=16 k=5
pool p2 k=2
fc f1 out=120 relu
fc f2 out=10
)";

TEST(SpecParser, ParsesSequentialNetwork) {
  const nn::Network net = parse_network_spec(kTinySpec);
  EXPECT_EQ(net.name(), "toy");
  ASSERT_EQ(net.layers().size(), 6u);
  const nn::Layer& c1 = net.layers()[0];
  EXPECT_EQ(c1.in_c, 1);
  EXPECT_EQ(c1.out_c, 6);
  EXPECT_EQ(c1.kh, 5);
  EXPECT_EQ(c1.pad, 2);
  EXPECT_TRUE(c1.relu);
  // Shapes inferred through the chain: 28 -> 28 -> 14 -> 10 -> 5.
  const nn::Layer& c2 = net.layers()[2];
  EXPECT_EQ(c2.in_c, 6);
  EXPECT_EQ(c2.in_h, 14);
  EXPECT_EQ(c2.out_h(), 10);
  const nn::Layer& f1 = net.layers()[4];
  EXPECT_EQ(f1.mm_m, 16 * 5 * 5);
  EXPECT_EQ(f1.mm_n, 120);
  EXPECT_TRUE(f1.relu);
  const nn::Layer& f2 = net.layers()[5];
  EXPECT_EQ(f2.mm_m, 120);
  EXPECT_FALSE(f2.relu);
}

TEST(SpecParser, ParsesBranchingGraph) {
  const nn::Network net = parse_network_spec(R"(
network branchy
input 8 16 16
conv stem out=16 k=3 pad=1
conv a out=8 k=1 from=stem
conv b out=8 k=3 pad=1 from=stem
concat cat from=a,b
conv tail out=4 k=1
)");
  ASSERT_EQ(net.layers().size(), 5u);
  EXPECT_EQ(net.layers()[3].kind, nn::LayerKind::Concat);
  // tail sees 16 concatenated channels.
  EXPECT_EQ(net.layers()[4].in_c, 16);
  EXPECT_NO_THROW(net.validate_graph());
}

TEST(SpecParser, DefaultsAndFlags) {
  const nn::Network net = parse_network_spec(R"(
network d
input 4 8 8
conv c out=4 norelu        # k defaults to 3, stride 1, pad 0
pool p k=2 avg
)");
  EXPECT_EQ(net.layers()[0].kh, 3);
  EXPECT_EQ(net.layers()[0].stride, 1);
  EXPECT_FALSE(net.layers()[0].relu);
  EXPECT_EQ(net.layers()[1].pool_op, nn::PoolOp::Avg);
  EXPECT_EQ(net.layers()[1].stride, 2);  // stride defaults to k
}

TEST(SpecParser, DepthwiseStatement) {
  const nn::Network net = parse_network_spec(R"(
network sep
input 8 16 16
depthwise dw k=3 stride=2 pad=1
conv pw out=16 k=1
)");
  ASSERT_EQ(net.layers().size(), 2u);
  const nn::Layer& dw = net.layers()[0];
  EXPECT_EQ(dw.kind, nn::LayerKind::Depthwise);
  EXPECT_EQ(dw.in_c, 8);
  EXPECT_EQ(dw.out_h(), 8);  // stride 2
  EXPECT_EQ(net.layers()[1].in_c, 8);  // channels pass through
  EXPECT_EQ(net.layers()[1].in_h, 8);
}

TEST(SpecParser, NonSquareKernel) {
  const nn::Network net = parse_network_spec(R"(
network seq
input 64 50 1
conv c out=32 kh=5 kw=1 k=5
)");
  EXPECT_EQ(net.layers()[0].kh, 5);
  EXPECT_EQ(net.layers()[0].kw, 1);
}

TEST(SpecParser, ErrorsCarryLineNumbers) {
  try {
    parse_network_spec("network x\ninput 3 8 8\nconv c k=3\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("out="), std::string::npos);
  }
}

TEST(SpecParser, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_network_spec(""), ConfigError);
  EXPECT_THROW(parse_network_spec("input 3 8 8\n"), ConfigError);  // no network
  EXPECT_THROW(parse_network_spec("network x\nconv c out=4\n"),
               ConfigError);  // no input
  EXPECT_THROW(parse_network_spec("network x\ninput 3 8 8\nwarp c out=4\n"),
               ConfigError);  // unknown keyword
  EXPECT_THROW(
      parse_network_spec("network x\ninput 3 8 8\nconv c out=4 from=ghost\n"),
      ConfigError);  // unknown producer
  EXPECT_THROW(
      parse_network_spec("network x\ninput 3 8 8\nconv c out=zz\n"),
      ConfigError);  // non-integer option
  EXPECT_THROW(
      parse_network_spec("network x\ninput 3 8 8\nconv c out=6x\n"),
      ConfigError);  // trailing junk (std::stoll read 6)
  EXPECT_THROW(
      parse_network_spec("network x\ninput 3 8 8\nconv c out=99999999999\n"),
      ConfigError);  // does not fit an int
}

TEST(SpecParser, FileRoundtrip) {
  const std::string path = "spec_tmp.ftdl";
  {
    std::ofstream out(path);
    out << kTinySpec;
  }
  const nn::Network net = parse_network_file(path);
  EXPECT_EQ(net.layers().size(), 6u);
  EXPECT_EQ(load_model(path).layers().size(), 6u);
  std::filesystem::remove(path);
  EXPECT_THROW(parse_network_file("nonexistent.ftdl"), ConfigError);
  EXPECT_THROW(load_model("nonexistent.ftdl"), ConfigError);
  EXPECT_EQ(load_model("Sentimental-seqCNN").name(), "Sentimental-seqCNN");
}

}  // namespace
}  // namespace ftdl::frontend
