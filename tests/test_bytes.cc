// Unit tests: refcounted buffers, scatter-gather vectors, and the slab pool.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/pool.h"
#include "src/util/rng.h"

namespace ensemble {
namespace {

TEST(BytesTest, EmptyByDefault) {
  Bytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(BytesTest, CopyPreservesContent) {
  Bytes b = Bytes::CopyString("hello world");
  EXPECT_EQ(b.size(), 11u);
  EXPECT_EQ(b.view(), "hello world");
}

TEST(BytesTest, CopyIsIndependentOfSource) {
  std::string source = "mutate me";
  Bytes b = Bytes::CopyString(source);
  source[0] = 'X';
  EXPECT_EQ(b.view(), "mutate me");
}

TEST(BytesTest, SliceSharesWithoutCopy) {
  Bytes b = Bytes::CopyString("0123456789");
  Bytes mid = b.Slice(3, 4);
  EXPECT_EQ(mid.view(), "3456");
  // Same underlying memory.
  EXPECT_EQ(mid.data(), b.data() + 3);
}

TEST(BytesTest, SliceClampsToBounds) {
  Bytes b = Bytes::CopyString("abc");
  EXPECT_EQ(b.Slice(1).view(), "bc");
  EXPECT_EQ(b.Slice(2, 100).view(), "c");
  EXPECT_TRUE(b.Slice(3).empty());
  EXPECT_TRUE(b.Slice(99, 1).empty());
}

TEST(BytesTest, SliceKeepsChunkAliveAfterParentDies) {
  Bytes tail;
  {
    Bytes b = Bytes::CopyString("longish buffer contents");
    tail = b.Slice(8);
  }
  EXPECT_EQ(tail.view(), "buffer contents");
}

TEST(BytesTest, CopyAndMoveSemantics) {
  Bytes a = Bytes::CopyString("x");
  Bytes b = a;             // Copy: both valid.
  EXPECT_EQ(a.view(), "x");
  EXPECT_EQ(b.view(), "x");
  Bytes c = std::move(a);  // Move: a emptied.
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(c.view(), "x");
  b = c;                   // Copy-assign.
  c = std::move(b);        // Move-assign.
  EXPECT_EQ(c.view(), "x");
}

TEST(BytesTest, EqualityIsContentBased) {
  Bytes a = Bytes::CopyString("same");
  Bytes b = Bytes::CopyString("same");
  Bytes c = Bytes::CopyString("diff");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(Bytes(), Bytes());
}

TEST(IovecTest, AppendAccumulatesSizeSkippingEmpties) {
  Iovec v;
  v.Append(Bytes::CopyString("ab"));
  v.Append(Bytes());  // Ignored.
  v.Append(Bytes::CopyString("cde"));
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.part_count(), 2u);
}

TEST(IovecTest, FlattenConcatenates) {
  Iovec v;
  v.Append(Bytes::CopyString("ab"));
  v.Append(Bytes::CopyString("cd"));
  v.Prepend(Bytes::CopyString("zz"));
  EXPECT_EQ(v.Flatten().view(), "zzabcd");
}

TEST(IovecTest, FlattenSinglePartIsZeroCopy) {
  Iovec v(Bytes::CopyString("solo"));
  Bytes flat = v.Flatten();
  EXPECT_EQ(flat.data(), v.part(0).data());
}

TEST(IovecTest, SubRangeCrossesPartBoundaries) {
  Iovec v;
  v.Append(Bytes::CopyString("abc"));
  v.Append(Bytes::CopyString("def"));
  v.Append(Bytes::CopyString("ghi"));
  EXPECT_EQ(v.SubRange(2, 5).Flatten().view(), "cdefg");
  EXPECT_EQ(v.SubRange(0, 9).Flatten().view(), "abcdefghi");
  EXPECT_EQ(v.SubRange(8, 10).Flatten().view(), "i");
  EXPECT_TRUE(v.SubRange(9, 1).empty());
}

TEST(IovecTest, ContentEqualsIgnoresPartition) {
  Iovec a;
  a.Append(Bytes::CopyString("abc"));
  a.Append(Bytes::CopyString("def"));
  Iovec b;
  b.Append(Bytes::CopyString("abcd"));
  b.Append(Bytes::CopyString("ef"));
  Iovec c(Bytes::CopyString("abcdXf"));
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_FALSE(a.ContentEquals(c));
}

TEST(IovecTest, InlinePartsSpillAndCopyMoveKeepContent) {
  // Two parts stay inline; a third spills every part to the heap array,
  // which copies, moves and Clear must all carry correctly.
  Iovec v(Bytes::CopyString("ab"));
  v.Append(Bytes::CopyString("cd"));
  Iovec inline_copy = v;
  v.Append(Bytes::CopyString("ef"));
  v.Prepend(Bytes::CopyString("zz"));
  EXPECT_EQ(v.part_count(), 4u);
  Iovec copy = v;
  Iovec moved = std::move(v);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.part_count(), 0u);
  EXPECT_EQ(copy.Flatten().view(), "zzabcdef");
  EXPECT_EQ(moved.Flatten().view(), "zzabcdef");
  EXPECT_EQ(inline_copy.Flatten().view(), "abcd");
  inline_copy = moved;
  EXPECT_EQ(inline_copy.Flatten().view(), "zzabcdef");
  moved.Clear();
  moved.Append(Bytes::CopyString("again"));
  EXPECT_EQ(moved.Flatten().view(), "again");
  v = std::move(copy);
  EXPECT_EQ(v.size(), 8u);
}

TEST(HeaderSlabTest, SlicesStayIntactAndChunksAreReusedOnceReleased) {
  HeaderSlab slab;
  std::vector<Bytes> held;
  // Fill well past one chunk while holding every slice: each must keep its
  // bytes, so the slab has to move on to fresh chunks.
  for (int i = 0; i < 600; i++) {
    std::string s = "hdr-" + std::to_string(i);
    held.push_back(slab.Copy(s.data(), s.size()));
  }
  for (int i = 0; i < 600; i++) {
    EXPECT_EQ(held[static_cast<size_t>(i)].view(), "hdr-" + std::to_string(i));
  }
  size_t chunks = slab.chunk_count();
  EXPECT_GT(chunks, 1u);
  // Released slices free their chunks for rewriting: the same traffic again
  // needs no new chunk.
  held.clear();
  for (int i = 0; i < 600; i++) {
    std::string s = "again-" + std::to_string(i);
    Bytes b = slab.Copy(s.data(), s.size());
    EXPECT_EQ(b.view(), s);
  }
  EXPECT_EQ(slab.chunk_count(), chunks);
  // Longer than a chunk: a plain copy.
  std::string big(HeaderSlab::kChunkBytes + 1, 'x');
  EXPECT_EQ(slab.Copy(big.data(), big.size()).view(), big);
}

TEST(PoolTest, RecyclesChunks) {
  BufferPool pool(128);
  {
    Bytes a = pool.Allocate(100);
    EXPECT_EQ(pool.stats().fresh_chunks, 1u);
  }
  // Released back: the next allocation reuses it.
  Bytes b = pool.Allocate(64);
  EXPECT_EQ(pool.stats().fresh_chunks, 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
}

TEST(PoolTest, OversizedRequestsFallThroughToHeap) {
  BufferPool pool(64);
  Bytes big = pool.Allocate(1000);
  EXPECT_EQ(big.size(), 1000u);
  EXPECT_EQ(pool.stats().allocations, 0u);  // Not served by the pool.
}

TEST(PoolTest, SlicesKeepPooledChunkCheckedOut) {
  BufferPool pool(64);
  Bytes slice;
  {
    Bytes a = pool.Allocate(32);
    std::memcpy(a.MutableData(), "0123456789abcdefghijklmnopqrstuv", 32);
    slice = a.Slice(4, 8);
  }
  // Chunk is still referenced by the slice: must not be recycled yet.
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(slice.view(), "456789ab");
  slice = Bytes();
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(PoolTest, ZeroSizeAllocationIsEmpty) {
  BufferPool pool;
  EXPECT_TRUE(pool.Allocate(0).empty());
}

// Property sweep: random slice/append/flatten sequences preserve content.
class IovecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IovecPropertyTest, RandomSlicingPreservesContent) {
  Rng rng(GetParam());
  std::string reference;
  Iovec v;
  for (int i = 0; i < 50; i++) {
    size_t len = rng.Below(40) + 1;
    std::string part;
    for (size_t j = 0; j < len; j++) {
      part.push_back(static_cast<char>('a' + rng.Below(26)));
    }
    reference += part;
    v.Append(Bytes::CopyString(part));
  }
  ASSERT_EQ(v.size(), reference.size());
  EXPECT_EQ(v.Flatten().view(), reference);
  for (int i = 0; i < 30; i++) {
    size_t pos = rng.Below(reference.size());
    size_t n = rng.Below(reference.size() - pos) + 1;
    EXPECT_EQ(v.SubRange(pos, n).Flatten().view(), reference.substr(pos, n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IovecPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ensemble
