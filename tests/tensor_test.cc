#include "core/tensor.h"

#include <gtest/gtest.h>

#include "core/coding.h"
#include "core/tensor_shape.h"
#include "golden.h"

namespace tfrepro {
namespace {

TEST(TensorShapeTest, Basics) {
  TensorShape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_FALSE(s.IsScalar());
}

TEST(TensorShapeTest, ScalarShape) {
  TensorShape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.num_elements(), 1);
  EXPECT_TRUE(s.IsScalar());
}

TEST(TensorShapeTest, Mutation) {
  TensorShape s({2, 3});
  s.AddDim(5);
  EXPECT_EQ(s.DebugString(), "[2,3,5]");
  s.RemoveDim(0);
  EXPECT_EQ(s.DebugString(), "[3,5]");
  s.InsertDim(1, 7);
  EXPECT_EQ(s.DebugString(), "[3,7,5]");
  s.set_dim(2, 1);
  EXPECT_EQ(s.num_elements(), 21);
}

TEST(TensorShapeTest, ValidateRejectsNegative) {
  EXPECT_FALSE(ValidateShape({2, -1}).ok());
  EXPECT_TRUE(ValidateShape({2, 0, 3}).ok());
  EXPECT_FALSE(ValidateShape({1LL << 40, 1LL << 40}).ok());
}

TEST(TensorTest, AllocateZeroed) {
  Tensor t(DataType::kFloat, TensorShape({2, 2}));
  EXPECT_TRUE(t.IsInitialized());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.flat<float>(i), 0.0f);
  }
}

TEST(TensorTest, ScalarConstructors) {
  EXPECT_EQ(*Tensor::Scalar(2.5f).data<float>(), 2.5f);
  EXPECT_EQ(*Tensor::Scalar(int32_t{7}).data<int32_t>(), 7);
  EXPECT_EQ(*Tensor::Scalar(int64_t{1} << 40).data<int64_t>(), int64_t{1} << 40);
  EXPECT_TRUE(*Tensor::Scalar(true).data<bool>());
  EXPECT_EQ(Tensor::Scalar(std::string("hi")).str(0), "hi");
}

TEST(TensorTest, FromVectorAndMatrixAccess) {
  Tensor t = Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({2, 3}));
  EXPECT_EQ(t.matrix<float>(0, 0), 1.0f);
  EXPECT_EQ(t.matrix<float>(1, 2), 6.0f);
}

TEST(TensorTest, CopySharesBuffer) {
  Tensor a = Tensor::Vec<float>({1, 2, 3});
  Tensor b = a;
  EXPECT_TRUE(a.SharesBufferWith(b));
  b.flat<float>(0) = 9;
  EXPECT_EQ(a.flat<float>(0), 9.0f);  // shared
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Vec<float>({1, 2, 3});
  Tensor b = a.Clone();
  EXPECT_FALSE(a.SharesBufferWith(b));
  b.flat<float>(0) = 9;
  EXPECT_EQ(a.flat<float>(0), 1.0f);
}

TEST(TensorTest, ReshapeSharesBuffer) {
  Tensor a = Tensor::FromVector<float>({1, 2, 3, 4}, TensorShape({2, 2}));
  Result<Tensor> r = a.Reshaped(TensorShape({4}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(a.SharesBufferWith(r.value()));
  EXPECT_EQ(r.value().shape().DebugString(), "[4]");
}

TEST(TensorTest, ReshapeRejectsElementCountChange) {
  Tensor a = Tensor::Vec<float>({1, 2, 3});
  EXPECT_FALSE(a.Reshaped(TensorShape({2, 2})).ok());
}

TEST(TensorTest, SliceRows) {
  Tensor a = Tensor::FromVector<int32_t>({1, 2, 3, 4, 5, 6}, TensorShape({3, 2}));
  Result<Tensor> r = a.SliceRows(1, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().shape().DebugString(), "[2,2]");
  EXPECT_EQ(r.value().matrix<int32_t>(0, 0), 3);
  EXPECT_EQ(r.value().matrix<int32_t>(1, 1), 6);
}

TEST(TensorTest, SliceRowsOutOfRange) {
  Tensor a = Tensor::FromVector<int32_t>({1, 2}, TensorShape({2, 1}));
  EXPECT_FALSE(a.SliceRows(1, 5).ok());
  EXPECT_FALSE(a.SliceRows(-1, 1).ok());
}

TEST(TensorTest, CopyDataFromChecksShapeAndType) {
  Tensor a(DataType::kFloat, TensorShape({2}));
  Tensor b = Tensor::Vec<float>({7, 8});
  ASSERT_TRUE(a.CopyDataFrom(b).ok());
  EXPECT_EQ(a.flat<float>(1), 8.0f);
  Tensor c = Tensor::Vec<int32_t>({1, 2});
  EXPECT_FALSE(a.CopyDataFrom(c).ok());
  Tensor d = Tensor::Vec<float>({1, 2, 3});
  EXPECT_FALSE(a.CopyDataFrom(d).ok());
}

// Pins an encoding to the bytes of an earlier build (DESIGN.md §2.1) and
// rejects every strict prefix of it.
void ExpectPinned(const std::string& bytes, const std::string& golden_hex) {
  EXPECT_EQ(Hex(bytes), golden_hex);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t offset = 0;
    EXPECT_FALSE(Tensor::ParseFromBytes(bytes.substr(0, cut), &offset).ok())
        << "cut at " << cut;
  }
}

TEST(TensorTest, SerializeRoundTripFloat) {
  Tensor a = Tensor::FromVector<float>({1.5f, -2.25f, 0, 4}, TensorShape({2, 2}));
  std::string bytes;
  a.AppendToBytes(&bytes);
  ExpectPinned(bytes,
               "01000000000000000200000000000000020000000000000002000000"
               "000000000000c03f000010c00000000000008040");
  size_t offset = 0;
  Result<Tensor> b = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(b.value().shape(), a.shape());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.value().flat<float>(i), a.flat<float>(i));
  }
}

TEST(TensorTest, SerializeRoundTripString) {
  Tensor a(DataType::kString, TensorShape({2}));
  a.str(0) = "hello";
  a.str(1) = std::string("\x00\x01 raw", 6);
  std::string bytes;
  a.AppendToBytes(&bytes);
  ExpectPinned(bytes,
               "06000000000000000100000000000000020000000000000005000000"
               "0000000068656c6c6f0600000000000000000120726177");
  size_t offset = 0;
  Result<Tensor> b = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().str(0), "hello");
  EXPECT_EQ(b.value().str(1), a.str(1));
}

TEST(TensorTest, SerializeRoundTripUninitialized) {
  std::string bytes;
  Tensor().AppendToBytes(&bytes);
  ExpectPinned(bytes, "0000000000000000");
  size_t offset = 0;
  Result<Tensor> parsed = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(offset, bytes.size());
  EXPECT_FALSE(parsed.value().IsInitialized());
}

TEST(TensorTest, SerializeMultipleTensorsSequentially) {
  Tensor a = Tensor::Scalar(1.0f);
  Tensor b = Tensor::Vec<int64_t>({10, 20});
  std::string bytes;
  a.AppendToBytes(&bytes);
  b.AppendToBytes(&bytes);
  size_t offset = 0;
  Result<Tensor> ra = Tensor::ParseFromBytes(bytes, &offset);
  Result<Tensor> rb = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra.value().data<float>(), 1.0f);
  EXPECT_EQ(rb.value().flat<int64_t>(1), 20);
}

TEST(TensorTest, ParseRejectsTruncated) {
  Tensor a = Tensor::Vec<float>({1, 2, 3});
  std::string bytes;
  a.AppendToBytes(&bytes);
  bytes.resize(bytes.size() - 4);
  size_t offset = 0;
  EXPECT_FALSE(Tensor::ParseFromBytes(bytes, &offset).ok());
}

TEST(TensorTest, ParseRejectsElementCountBeyondPayload) {
  // 2^62 floats is 2^64 bytes: the byte count wraps to 0 in size_t, so
  // the header must be judged against the payload by element count.
  std::string bytes;
  for (int64_t v : {static_cast<int64_t>(DataType::kFloat), int64_t{1},
                    int64_t{1} << 62}) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  size_t offset = 0;
  Result<Tensor> parsed = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Code::kDataLoss) << parsed.status();
}

TEST(TensorTest, ParseRejectsGarbage) {
  std::string bytes(64, '\xff');
  size_t offset = 0;
  EXPECT_FALSE(Tensor::ParseFromBytes(bytes, &offset).ok());
}

TEST(TensorTest, ParseRejectsStringCountBeyondPayload) {
  // A 24-byte header claiming 2^40 string elements and no payload: each
  // element needs at least its 8-byte length, so nothing is allocated.
  std::string bytes;
  AppendInt64(&bytes, static_cast<int64_t>(DataType::kString));
  AppendShape(&bytes, TensorShape({int64_t{1} << 40}));
  ASSERT_EQ(bytes.size(), 24u);
  size_t offset = 0;
  Result<Tensor> parsed = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Code::kDataLoss) << parsed.status();
}

TEST(TensorTest, TotalBytes) {
  Tensor a(DataType::kDouble, TensorShape({3}));
  EXPECT_EQ(a.TotalBytes(), 24u);
  Tensor s(DataType::kString, TensorShape({2}));
  s.str(0) = "abcd";
  EXPECT_EQ(s.TotalBytes(), 4u);
}

TEST(TensorTest, DebugStringTruncates) {
  Tensor a(DataType::kInt32, TensorShape({100}));
  std::string ds = a.DebugString(4);
  EXPECT_NE(ds.find("..."), std::string::npos);
}


TEST(TensorTest, ZeroElementTensors) {
  Tensor t(DataType::kFloat, TensorShape({0, 4}));
  EXPECT_EQ(t.num_elements(), 0);
  EXPECT_EQ(t.TotalBytes(), 0u);
  Tensor copy = t.Clone();
  EXPECT_EQ(copy.shape().DebugString(), "[0,4]");
  std::string bytes;
  t.AppendToBytes(&bytes);
  size_t offset = 0;
  Result<Tensor> parsed = Tensor::ParseFromBytes(bytes, &offset);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().num_elements(), 0);
}

TEST(TensorTest, SliceRowsOfStrings) {
  Tensor t(DataType::kString, TensorShape({3, 2}));
  for (int i = 0; i < 6; ++i) t.str(i) = "s" + std::to_string(i);
  Result<Tensor> sliced = t.SliceRows(1, 2);
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced.value().str(0), "s2");
  EXPECT_EQ(sliced.value().str(3), "s5");
}

TEST(TensorTest, SliceRowsZeroLength) {
  Tensor t = Tensor::Vec<float>({1, 2, 3});
  Result<Tensor> sliced = t.SliceRows(1, 0);
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced.value().num_elements(), 0);
}

TEST(TypesTest, RefTypes) {
  DataType ref = MakeRefType(DataType::kFloat);
  EXPECT_TRUE(IsRefType(ref));
  EXPECT_FALSE(IsRefType(DataType::kFloat));
  EXPECT_EQ(BaseType(ref), DataType::kFloat);
  EXPECT_EQ(std::string(DataTypeName(ref)), "float_ref");
}

TEST(TypesTest, SizesAndPredicates) {
  EXPECT_EQ(DataTypeSize(DataType::kFloat), 4u);
  EXPECT_EQ(DataTypeSize(DataType::kInt64), 8u);
  EXPECT_EQ(DataTypeSize(DataType::kString), 0u);
  EXPECT_TRUE(DataTypeIsFloating(DataType::kDouble));
  EXPECT_FALSE(DataTypeIsFloating(DataType::kInt32));
  EXPECT_TRUE(DataTypeIsInteger(DataType::kUint8));
}

}  // namespace
}  // namespace tfrepro
