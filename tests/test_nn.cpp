// Tests for layers, networks, the model zoo (Table I numbers) and the
// reference executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "nn/model_zoo.h"
#include "nn/reference.h"

namespace ftdl::nn {
namespace {

TEST(Layer, ConvGeometry) {
  const Layer l = make_conv("c", 3, 224, 224, 64, 7, 2, 3);
  EXPECT_EQ(l.out_h(), 112);
  EXPECT_EQ(l.out_w(), 112);
  EXPECT_EQ(l.weight_count(), 64LL * 3 * 7 * 7);
  EXPECT_EQ(l.macs(), 64LL * 112 * 112 * 3 * 7 * 7);
  EXPECT_EQ(l.conv_ops(), 2 * l.macs());
  EXPECT_EQ(l.mm_ops(), 0);
  // Fused ReLU contributes one EWOP per output element.
  EXPECT_EQ(l.ewop_ops(), 64LL * 112 * 112);
}

TEST(Layer, MatMulAccounting) {
  const Layer l = make_matmul("fc", 1024, 1000, 1);
  EXPECT_EQ(l.macs(), 1024LL * 1000);
  EXPECT_EQ(l.weight_count(), 1024LL * 1000);
  EXPECT_EQ(l.mm_ops(), 2LL * 1024 * 1000);
  EXPECT_EQ(l.conv_ops(), 0);
}

TEST(Layer, RepeatScalesOpsNotWeights) {
  const Layer l = make_matmul("lstm", 2048, 4096, 1, false, 30);
  EXPECT_EQ(l.mm_ops(), 30 * 2LL * 2048 * 4096);
  EXPECT_EQ(l.weight_count(), 2048LL * 4096);  // weights shared across steps
}

TEST(Layer, PoolCountsEwop) {
  const Layer l = make_pool("p", 64, 112, 112, 3, 2, 1);
  EXPECT_EQ(l.out_h(), 56);
  EXPECT_EQ(l.ewop_ops(), 64LL * 56 * 56);  // one op per pooled output
  EXPECT_EQ(l.weight_count(), 0);
  EXPECT_FALSE(l.on_overlay());
}

TEST(Layer, FactoryValidation) {
  EXPECT_THROW(make_conv("bad", 0, 10, 10, 8, 3, 1, 1), ConfigError);
  EXPECT_THROW(make_conv("bad", 3, 2, 2, 8, 5, 1, 0), ConfigError);  // no fit
  EXPECT_THROW(make_matmul("bad", 0, 10, 1), ConfigError);
  EXPECT_THROW(make_ewop("bad", -1), ConfigError);
}

// ---- Table I: model statistics --------------------------------------------

TEST(ModelZoo, GoogLeNetMatchesTable1) {
  const NetworkStats s = googlenet().stats();
  // ~3.14 GOP total; the paper's row: 99.73% CONV / 0.07% MM / 0.20% EWOP,
  // 13.7 MB of 16-bit weights.
  EXPECT_NEAR(double(s.total_ops()), 3.14e9, 0.1e9);
  EXPECT_NEAR(s.conv_fraction(), 0.9973, 0.002);
  EXPECT_NEAR(s.mm_fraction(), 0.0007, 0.0004);
  EXPECT_NEAR(s.ewop_fraction(), 0.0020, 0.002);
  EXPECT_NEAR(double(s.weight_bytes()) / 1e6, 13.7, 0.7);
}

TEST(ModelZoo, ResNet50MatchesTable1) {
  const NetworkStats s = resnet50().stats();
  EXPECT_NEAR(double(s.total_ops()), 7.72e9, 0.2e9);
  EXPECT_NEAR(s.conv_fraction(), 0.9967, 0.002);
  EXPECT_NEAR(s.mm_fraction(), 0.0005, 0.0004);
  EXPECT_NEAR(s.ewop_fraction(), 0.0027, 0.002);
  EXPECT_NEAR(double(s.weight_bytes()) / 1e6, 51.0, 3.0);
}

TEST(ModelZoo, AlphaGoZeroMatchesWeightBudget) {
  const NetworkStats s = alphago_zero().stats();
  EXPECT_NEAR(double(s.weight_bytes()) / 1e6, 2.08, 0.15);
  EXPECT_GT(s.conv_fraction(), 0.99);
  EXPECT_LT(s.mm_fraction(), 0.003);
}

TEST(ModelZoo, SeqCnnMatchesTable1) {
  const NetworkStats s = sentimental_seqcnn().stats();
  EXPECT_NEAR(double(s.weight_bytes()) / 1e3, 345.06, 5.0);
  EXPECT_NEAR(s.conv_fraction(), 0.8986, 0.01);
  EXPECT_NEAR(s.mm_fraction(), 0.0015, 0.0005);
  EXPECT_NEAR(s.ewop_fraction(), 0.0999, 0.01);
}

TEST(ModelZoo, SeqLstmMatchesTable1) {
  const NetworkStats s = sentimental_seqlstm().stats();
  EXPECT_NEAR(double(s.weight_bytes()) / 1e6, 39.9, 1.0);
  EXPECT_EQ(s.conv_ops, 0);
  EXPECT_NEAR(s.mm_fraction(), 0.9989, 0.001);
  EXPECT_NEAR(s.ewop_fraction(), 0.0011, 0.001);
}

TEST(ModelZoo, AllModelsEnumerable) {
  const auto models = mlperf_models();
  ASSERT_EQ(models.size(), 5u);
  EXPECT_EQ(models[0].name(), "GoogLeNet");
  EXPECT_NO_THROW(model_by_name("ResNet50"));
  EXPECT_THROW(model_by_name("VGG16"), ConfigError);
}

TEST(ModelZoo, OverlayLayersAreOnlyConvAndMm) {
  for (const Network& net : mlperf_models()) {
    for (const Layer& l : net.overlay_layers()) {
      EXPECT_TRUE(l.kind == LayerKind::Conv || l.kind == LayerKind::MatMul);
    }
    EXPECT_FALSE(net.overlay_layers().empty()) << net.name();
  }
}

// ---- reference executor ----------------------------------------------------

TEST(Reference, Conv1x1IsChannelMix) {
  const Layer l = make_conv("c", 2, 2, 2, 1, 1, 1, 0);
  Tensor16 in({2, 2, 2});
  in.at(0, 0, 0) = 1; in.at(0, 0, 1) = 2; in.at(0, 1, 0) = 3; in.at(0, 1, 1) = 4;
  in.at(1, 0, 0) = 5; in.at(1, 0, 1) = 6; in.at(1, 1, 0) = 7; in.at(1, 1, 1) = 8;
  Tensor16 w({1, 2, 1, 1});
  w.at(0, 0, 0, 0) = 10;
  w.at(0, 1, 0, 0) = -1;
  const AccTensor out = conv2d_reference(l, in, w);
  EXPECT_EQ(out.at(0, 0, 0), 10 * 1 - 5);
  EXPECT_EQ(out.at(0, 1, 1), 10 * 4 - 8);
}

TEST(Reference, ConvPaddingContributesZeros) {
  const Layer l = make_conv("c", 1, 2, 2, 1, 3, 1, 1);
  Tensor16 in({1, 2, 2});
  in.at(0, 0, 0) = 1; in.at(0, 0, 1) = 1; in.at(0, 1, 0) = 1; in.at(0, 1, 1) = 1;
  Tensor16 w({1, 1, 3, 3});
  for (int r = 0; r < 3; ++r)
    for (int s = 0; s < 3; ++s) w.at(0, 0, r, s) = 1;
  const AccTensor out = conv2d_reference(l, in, w);
  // Corner output sees 4 valid inputs, all ones.
  EXPECT_EQ(out.at(0, 0, 0), 4);
}

TEST(Reference, MatMulMatchesManual) {
  const Layer l = make_matmul("fc", 3, 2, 2);
  Tensor16 w({2, 3});  // W[N][M]
  Tensor16 a({3, 2});  // act[M][P]
  int v = 1;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) w.at(i, j) = static_cast<std::int16_t>(v++);
  v = 1;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) a.at(i, j) = static_cast<std::int16_t>(v++);
  const AccTensor out = matmul_reference(l, a, w);
  // out[0][0] = 1*1 + 2*3 + 3*5 = 22 ; out[1][1] = 4*2+5*4+6*6 = 64
  EXPECT_EQ(out.at(0, 0), 22);
  EXPECT_EQ(out.at(1, 1), 64);
}

TEST(Reference, RequantizeAppliesShiftAndRelu) {
  Layer l = make_conv("c", 1, 1, 1, 1, 1, 1, 0, /*relu=*/true);
  AccTensor acc({1, 1, 1});
  acc.at(0, 0, 0) = -4096;
  const Tensor16 q_relu = requantize_output(l, acc, 8);
  EXPECT_EQ(q_relu.at(0, 0, 0), 0);  // negative clipped by ReLU
  l.relu = false;
  const Tensor16 q = requantize_output(l, acc, 8);
  EXPECT_EQ(q.at(0, 0, 0), -16);
}

TEST(Reference, MaxAndAvgPool) {
  const Layer l = make_pool("p", 1, 2, 2, 2, 2);
  Tensor16 in({1, 2, 2});
  in.at(0, 0, 0) = 1; in.at(0, 0, 1) = 8; in.at(0, 1, 0) = -3; in.at(0, 1, 1) = 2;
  EXPECT_EQ(maxpool_reference(l, in).at(0, 0, 0), 8);
  EXPECT_EQ(avgpool_reference(l, in).at(0, 0, 0), 2);  // (1+8-3+2)/4
}

// The pooling kernels clip each window once and read rows through raw
// pointers; a naive per-tap loop with bounds checks pins them, including
// windows that hang over the padding, negative averages (truncated toward
// zero) and odd plane sizes.
TEST(Reference, PoolingMatchesNaivePerTapLoop) {
  Rng rng(77);
  for (int stride : {1, 2}) {
    for (int pad : {0, 1}) {
      for (int k : {3, 7}) {
        const int c = static_cast<int>(rng.uniform(1, 4));
        const int h = static_cast<int>(rng.uniform(k, k + 8)) | 1;
        const int w = static_cast<int>(rng.uniform(k, k + 8)) | 1;
        const Layer l = make_pool2("p", c, h, w, k, k, stride, pad);
        Tensor16 in({c, h, w});
        in.fill_random(rng, 30000);
        const Tensor16 mx = maxpool_reference(l, in);
        const Tensor16 avg = avgpool_reference(l, in);
        ASSERT_EQ(mx.dims(), (Dims{c, l.out_h(), l.out_w()}));
        ASSERT_EQ(avg.dims(), mx.dims());
        for (int ch = 0; ch < c; ++ch) {
          for (int y = 0; y < l.out_h(); ++y) {
            for (int x = 0; x < l.out_w(); ++x) {
              std::int64_t best = std::numeric_limits<std::int16_t>::min();
              std::int64_t sum = 0, count = 0;
              for (int r = 0; r < k; ++r) {
                for (int s = 0; s < k; ++s) {
                  const int iy = y * stride + r - pad;
                  const int ix = x * stride + s - pad;
                  if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                  best = std::max<std::int64_t>(best, in.at(ch, iy, ix));
                  sum += in.at(ch, iy, ix);
                  ++count;
                }
              }
              const std::int64_t mean = count > 0 ? sum / count : 0;
              EXPECT_EQ(mx.at(ch, y, x), best)
                  << "stride=" << stride << " pad=" << pad << " k=" << k;
              EXPECT_EQ(avg.at(ch, y, x), mean)
                  << "stride=" << stride << " pad=" << pad << " k=" << k;
            }
          }
        }
      }
    }
  }
}

TEST(Tensor, RandomFillDeterministicAndBounded) {
  Rng r1(9), r2(9);
  Tensor16 a({4, 4}), b({4, 4});
  a.fill_random(r1);
  b.fill_random(r2);
  EXPECT_EQ(a, b);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a[i]), 7);
  }
}

}  // namespace
}  // namespace ftdl::nn
