// The one bounded wire codec (common/wire.hpp, DESIGN.md §14):
// field layout, sticky-fail reads and sealed frames; byte-exact golden
// encodings of checkpoints and distribution-manager envelopes; named
// regression inputs that once crashed a decoder; and a seeded mutation
// harness that feeds 100K bit-flipped, truncated, length-inflated, spliced
// and garbage mutants of every format to its decoder. Every mutant must
// decode to a coherent value or come back as a non-OK Status — no decoder
// may throw, whatever its input.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/checkpoint.hpp"
#include "comm/bus.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/wire.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/plan_io.hpp"

// Heap-request tracking for the whole test binary: while armed, the largest
// single operator new request is recorded, so the harness can assert that
// no decoder asks for more memory than its input can back.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};

void* tracked_malloc(std::size_t n) noexcept {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line so the compiler does not pair an inlined free() with the
// operator new at a call site: every block below comes from malloc().
[[gnu::noinline]] void tracked_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = tracked_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return tracked_malloc(n); }
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { tracked_free(p); }

namespace lobster {
namespace {

using runtime::DistributionManager;

/// Arms the allocation tracker for its lifetime.
class AllocationProbe {
 public:
  AllocationProbe() {
    g_largest_allocation.store(0);
    g_track_allocations.store(true);
  }
  ~AllocationProbe() { g_track_allocations.store(false); }
  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;

  std::size_t largest() const { return g_largest_allocation.load(); }
};

/// What a decoder may ask for at once: a small constant plus a few times
/// the bytes it was given.
std::size_t allocation_bound(std::size_t input_bytes) { return 64 * 1024 + 16 * input_bytes; }

constexpr int kMutantsPerFormat = 100'000;
/// The distribution manager's request tag (private to its translation
/// unit; the scripted peer speaks the wire protocol, not the C++ API).
constexpr comm::Tag kFetchRequestTag = 0x0F00;
constexpr SampleId kInventorySample = kInvalidSample - 1;
constexpr SampleId kMultiGetSample = kInvalidSample - 2;
constexpr Bytes kPayloadBytes = 40;

std::vector<std::byte> from_hex(std::string_view hex) {
  std::vector<std::byte> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::byte>(std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// Rewrites the CRC32 trailer of a sealed frame so a mutated body reaches
/// the body decoder instead of dying at the CRC check.
void reseal(std::vector<std::byte>& frame) {
  if (frame.size() < 4) return;
  const std::uint32_t crc = wire::crc32(std::span(frame).first(frame.size() - 4));
  for (std::size_t i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + i] = static_cast<std::byte>(crc >> (8 * i));
  }
}

void write_le(std::vector<std::byte>& bytes, std::size_t offset, std::size_t width,
              std::uint64_t value) {
  for (std::size_t i = 0; i < width && offset + i < bytes.size(); ++i) {
    bytes[offset + i] = static_cast<std::byte>(value >> (8 * i));
  }
}

// ---------------------------------------------------------------------------
// Codec primitives
// ---------------------------------------------------------------------------

TEST(Wire, WriterLaysOutLittleEndianFieldsAndZeroPadding) {
  std::vector<std::byte> out;
  wire::Writer w(out);
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504);
  w.zeros(2);
  w.u64(0x0F0E0D0C0B0A0908ULL);
  w.boolean(true);
  w.str("ab");
  EXPECT_EQ(out, from_hex("010203040506070000"
                          "08090a0b0c0d0e0f"
                          "01"
                          "020000006162"));

  wire::Reader r(out);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0302);
  EXPECT_EQ(r.u32(), 0x07060504U);
  r.skip(2);
  EXPECT_EQ(r.u64(), 0x0F0E0D0C0B0A0908ULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "ab");
  EXPECT_TRUE(r.done());
}

TEST(Wire, WriterFillsAPresizedBufferInPlace) {
  std::vector<std::byte> buffer(16, std::byte{0xEE});
  const std::byte* const storage = buffer.data();
  wire::Writer w(buffer);
  w.u32(7);
  std::byte* at = w.reserve(4);
  EXPECT_EQ(at, storage + 4);
  std::fill_n(at, 4, std::byte{0xAB});
  w.f64(1.5);
  EXPECT_EQ(buffer.size(), 16U);
  EXPECT_EQ(buffer.data(), storage);  // written in place, never reallocated
  wire::Reader r(buffer);
  EXPECT_EQ(r.u32(), 7U);
  r.skip(4);
  EXPECT_DOUBLE_EQ(r.f64(), 1.5);
  EXPECT_TRUE(r.done());
  w.u8(1);  // past the end: grows
  EXPECT_EQ(buffer.size(), 17U);
}

TEST(Wire, ReaderFailsStickyAndReturnsZeros) {
  const auto bytes = from_hex("0102030405");
  wire::Reader r(bytes);
  EXPECT_EQ(r.u32(), 0x04030201U);
  EXPECT_EQ(r.u16(), 0);  // one byte left: short read
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // sticky, even though a byte remains
  EXPECT_TRUE(r.bytes(0).empty());
  EXPECT_FALSE(r.done());
}

TEST(Wire, CountRejectsLengthsTheInputCannotBack) {
  std::vector<std::byte> bytes;
  wire::Writer w(bytes);
  w.u32(3);
  w.zeros(12);
  EXPECT_EQ(wire::Reader(bytes).count(4), 3U);
  wire::Reader short_elems(bytes);
  EXPECT_EQ(short_elems.count(5), 0U);  // 3 * 5 > 12
  EXPECT_FALSE(short_elems.ok());

  std::vector<std::byte> wide;
  wire::Writer w64(wide);
  w64.u64((1ULL << 62) | 1);  // count * 4 wraps to 4 in 64-bit arithmetic
  w64.zeros(4);
  wire::Reader r(wide);
  EXPECT_EQ(r.count<std::uint64_t>(4), 0U);
  EXPECT_FALSE(r.ok());
}

TEST(Wire, OpenChecksLengthCrcMagicAndVersion) {
  const auto frame = wire::seal(0xA1B2C3D4, 3, [](wire::Writer& w) { w.u32(42); });
  ASSERT_EQ(frame.size(), 4U + 2U + 4U + 4U);
  auto opened = wire::open(frame, 0xA1B2C3D4, 3, "test");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->u32(), 42U);
  EXPECT_TRUE(opened->done());

  const auto code = [](const std::vector<std::byte>& bytes, std::uint16_t version = 3) {
    return wire::open(bytes, 0xA1B2C3D4, version, "test").status();
  };
  EXPECT_EQ(code(std::vector<std::byte>(frame.begin(), frame.begin() + 9)).detail(),
            "test: buffer shorter than header + trailer");
  auto flipped = frame;
  flipped[7] ^= std::byte{0x10};
  EXPECT_EQ(code(flipped).detail(), "test: CRC mismatch");
  auto magic = frame;
  magic[0] ^= std::byte{0x01};
  reseal(magic);
  EXPECT_EQ(code(magic).detail(), "test: bad magic");
  EXPECT_EQ(code(frame, 4).detail(), "test: unsupported version");
  EXPECT_EQ(code(flipped).code(), StatusCode::kCorrupt);
}

TEST(Wire, FilesWriteAtomicallyAndReportMissingAsNotFound) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "lobster_wire_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "frame.bin").string();
  const auto bytes = from_hex("00ff10");
  ASSERT_TRUE(wire::write_file(path, bytes, "test").ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto read = wire::read_file(path, "test");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
  EXPECT_EQ(wire::read_file((dir / "missing.bin").string(), "test").status().code(),
            StatusCode::kNotFound);
  // A directory opens as a stream whose size once sized the read buffer.
  EXPECT_EQ(wire::read_file(dir.string(), "test").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(wire::write_file((dir / "no/such/dir/x").string(), bytes, "test").code(),
            StatusCode::kInvalid);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Golden encodings
// ---------------------------------------------------------------------------

cluster::JobCheckpoint fixture_checkpoint() {
  cluster::JobCheckpoint cp;
  cp.job_id = 7;
  cp.name = "trainer-7";
  cp.dataset_fingerprint = 0xFEEDFACE12345678ULL;
  cp.sampler_seed = 99;
  cp.epoch = 3;
  cp.cursor = 1234;
  cp.delivered_total = 99'999;
  cp.delivery_digest = cluster::delivery_digest_advance(0, 42);
  cp.width = 4;
  cp.gpus_per_node = 2;
  cp.batch_size = 32;
  cp.quotas = {9, 8, 8, 7, 9, 8, 8, 7};
  cp.has_balancer = true;
  cp.balancer.devices = {{123.5, 6, false}, {88.25, 6, true}};
  cp.balancer.quotas = {17, 15};
  cp.balancer.applied_weights = {0.53, 0.47};
  cp.balancer.applied_targets = {17, 15};
  cp.balancer.observed_iters = 6;
  cp.residency = {{11, 0, 4096}, {57, 3, 4096}, {200, 1, 4096}};
  cp.residency_checksum = runtime::inventory_checksum({11, 57, 200});
  return cp;
}

runtime::Plan fixture_plan() {
  runtime::Plan plan;
  plan.cluster_nodes = 2;
  plan.gpus_per_node = 2;
  plan.epochs = 2;
  plan.iterations_per_epoch = 2;
  plan.batch_size = 16;
  plan.seed = 0xC0FFEE;
  for (IterId i = 0; i < 4; ++i) {
    runtime::IterationPlan iteration;
    iteration.iter = i;
    iteration.nodes.resize(2);
    for (std::size_t n = 0; n < 2; ++n) {
      auto& node = iteration.nodes[n];
      node.preproc_threads = 6;
      node.load_threads = {3, static_cast<std::uint32_t>(5 + n)};
      node.prefetches = {static_cast<SampleId>(10 + i), 20, 30};
      node.evictions = {static_cast<SampleId>(7 * i)};
    }
    plan.iterations.push_back(std::move(iteration));
  }
  return plan;
}

TEST(WireGolden, CheckpointBytesAreUnchangedByTheSharedCodec) {
  // Serialized by the checkpoint's own codec before it moved onto
  // common/wire.hpp; the port must not move a single byte.
  const auto golden = from_hex(
      "5043424c01000700000009000000747261696e65722d3778563412cefaedfe63"
      "0000000000000003000000d2040000000000009f86010000000000956eeb2f26"
      "32d7bd0400020020000000080000000900000008000000080000000700000009"
      "00000008000000080000000700000001020000000000000000e05e4006000000"
      "0000000000000000000010564006000000000000000102000000110000000f00"
      "000002000000f6285c8fc2f5e03f14ae47e17a14de3f02000000110000000f00"
      "00000600000000000000030000000b0000000000001000000000000039000000"
      "03000010000000000000c8000000010000100000000000006b7847be9f9a5643"
      "62691bf6");
  EXPECT_EQ(cluster::serialize(fixture_checkpoint()), golden);
  EXPECT_TRUE(cluster::deserialize(golden).ok());
}

TEST(WireGolden, PlanV2IsASealedFrame) {
  const runtime::Plan plan = fixture_plan();
  const auto bytes = runtime::serialize_plan(plan);
  // [magic][version 2][nodes][gpus][epochs][I][batch][seed][count] ...
  EXPECT_EQ(std::vector<std::byte>(bytes.begin(), bytes.begin() + 14),
            from_hex("5453424c" "0200" "0200" "0200" "02000000"));
  EXPECT_EQ(wire::Reader(std::span(bytes).last(4)).u32(),
            wire::crc32(std::span(bytes).first(bytes.size() - 4)));
  const auto decoded = runtime::deserialize_plan(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(runtime::serialize_plan(*decoded), bytes);
}

/// Rank 0 runs the distribution manager under test as a client; rank 1 is
/// a scripted peer that answers every request with the reply it was given
/// and remembers the last request it saw.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(runtime::FetchPolicy policy = harness_policy())
      : dm_(bus_.endpoint(0), nullptr, nullptr, policy), thread_([this] { serve(); }) {}

  ~ScriptedPeer() {
    bus_.shutdown();
    thread_.join();
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  /// Long deadline, no retries, breakers that never open: every mutant
  /// reaches the decoder exactly once.
  static runtime::FetchPolicy harness_policy() {
    runtime::FetchPolicy policy;
    policy.timeout = 30.0;
    policy.max_retries = 0;
    policy.breaker_threshold = 0;
    policy.corrupt_strike_threshold = 0;
    return policy;
  }

  DistributionManager& dm() { return dm_; }

  void answer_with(std::vector<std::byte> reply) {
    const std::lock_guard lock(mutex_);
    reply_ = std::move(reply);
  }

  std::vector<std::byte> last_request() {
    const std::lock_guard lock(mutex_);
    return last_request_;
  }

 private:
  void serve() {
    comm::Endpoint& peer = bus_.endpoint(1);
    while (true) {
      auto request = peer.recv(kFetchRequestTag);
      if (!request.ok()) return;  // bus shutdown
      const std::uint64_t request_id = wire::Reader(request->bytes()).u64();
      std::vector<std::byte> reply;
      {
        const std::lock_guard lock(mutex_);
        last_request_ = request->bytes();
        reply = reply_;
      }
      (void)peer.send(0, DistributionManager::response_tag(request_id), std::move(reply));
    }
  }

  comm::MessageBus bus_{2};
  DistributionManager dm_;
  std::mutex mutex_;
  std::vector<std::byte> reply_;
  std::vector<std::byte> last_request_;
  std::thread thread_;  // last: starts once every member it touches exists
};

TEST(WireGolden, EnvelopeLayoutsAreFixed) {
  // Byte strings captured from the hand-packed envelopes the shared codec
  // replaced: same sizes, same offsets, padding written as zeros.
  {
    // Requests the manager sends (fresh manager: request ids 1, 2, 3).
    ScriptedPeer peer;
    peer.answer_with(from_hex("0000000000000000"));
    (void)peer.dm().fetch_remote(9, 1);
    EXPECT_EQ(peer.last_request(), from_hex("0100000000000000" "09000000" "00000000"));
    (void)peer.dm().fetch_remote_many(1, {9, 10, 11}, 0);
    EXPECT_EQ(peer.last_request(), from_hex("0200000000000000" "fdffffff" "00000000"
                                            "0300000000000000" "090000000a0000000b000000"));
    (void)peer.dm().fetch_inventory(1);
    EXPECT_EQ(peer.last_request(), from_hex("0300000000000000" "feffffff" "00000000"));
  }

  // Replies the manager serves.
  comm::MessageBus bus(2);
  DistributionManager server(
      bus.endpoint(0), [](SampleId s) { return s < 1000; },
      [](SampleId) { return kPayloadBytes; });
  server.set_inventory_source([] { return std::vector<SampleId>{5, 6, 7}; });
  server.start();
  comm::Endpoint& client = bus.endpoint(1);
  const auto ask = [&](std::uint64_t id, SampleId sample, std::vector<SampleId> ids = {}) {
    std::vector<std::byte> request;
    wire::Writer w(request);
    w.u64(id);
    w.u32(sample);
    w.zeros(4);
    if (sample == kMultiGetSample) {
      w.u64(ids.size());
      for (const SampleId s : ids) w.u32(s);
    }
    EXPECT_TRUE(client.send(0, kFetchRequestTag, std::move(request)).ok());
    auto reply = client.recv_for(DistributionManager::response_tag(id), 10.0);
    EXPECT_TRUE(reply.ok());
    return reply.ok() ? reply->bytes() : std::vector<std::byte>{};
  };
  // A 40-byte payload: [u32 id][u64 length] then the keyed pattern.
  const std::string payload5 =
      "05000000" "2800000000000000" "cbfc880b4c4a88f89719cc6ad6a9efbff31b907a92659ddc04db2fa7";
  const std::string payload6 =
      "06000000" "2800000000000000" "3a8ea7c52ddb277e7919dc32ef29b70a809228c523499c88478ceeb1";
  EXPECT_EQ(ask(101, 5), from_hex("05000000" "01" "000000" + payload5));
  EXPECT_EQ(ask(102, 2000), from_hex("d0070000" "00" "000000"));
  EXPECT_EQ(ask(103, kMultiGetSample, {5, 2000, 6}),
            from_hex("fdffffff" "01" "000000" "0300000000000000"
                     "05000000" "2800000000000000" + payload5 +
                     "d0070000" "0000000000000000"
                     "06000000" "2800000000000000" + payload6));
  EXPECT_EQ(ask(104, kInventorySample),
            from_hex("feffffff" "01" "000000" "0300000000000000" "050000000600000007000000"
                     "83de5987230119a7"));
  server.stop();
  bus.shutdown();
}

// ---------------------------------------------------------------------------
// Golden replies the harness mutates (layouts pinned by the test above)
// ---------------------------------------------------------------------------

/// A length field inside a golden encoding: where it sits and how wide.
struct LengthField {
  std::size_t offset = 0;
  std::size_t width = 0;
};

struct Golden {
  std::vector<std::byte> bytes;
  std::vector<LengthField> lengths;
};

void put_reply_head(wire::Writer& w, SampleId sample, std::uint8_t found) {
  w.u32(sample);
  w.u8(found);
  w.zeros(3);
}

Golden single_reply(SampleId sample) {
  Golden golden;
  wire::Writer w(golden.bytes);
  put_reply_head(w, sample, 1);
  runtime::make_sample_payload_into(sample, kPayloadBytes, w.reserve(kPayloadBytes));
  return golden;
}

/// `ids` found (kPayloadBytes each) unless listed in `missing`.
Golden multi_get_reply(const std::vector<SampleId>& ids, const std::vector<SampleId>& missing) {
  Golden golden;
  wire::Writer w(golden.bytes);
  put_reply_head(w, kMultiGetSample, 1);
  golden.lengths.push_back({golden.bytes.size(), 8});
  w.u64(ids.size());
  for (const SampleId id : ids) {
    const bool found = std::find(missing.begin(), missing.end(), id) == missing.end();
    w.u32(id);
    golden.lengths.push_back({golden.bytes.size(), 8});
    w.u64(found ? kPayloadBytes : 0);
    if (found) runtime::make_sample_payload_into(id, kPayloadBytes, w.reserve(kPayloadBytes));
  }
  return golden;
}

Golden inventory_reply(const std::vector<SampleId>& ids) {
  Golden golden;
  wire::Writer w(golden.bytes);
  put_reply_head(w, kInventorySample, 1);
  golden.lengths.push_back({golden.bytes.size(), 8});
  w.u64(ids.size());
  for (const SampleId id : ids) w.u32(id);
  w.u64(runtime::inventory_checksum(ids));
  return golden;
}

/// Walks a plan v2 frame and records every length field.
Golden plan_golden() {
  Golden golden{runtime::serialize_plan(fixture_plan()), {}};
  wire::Reader r(golden.bytes);
  const auto pos = [&] { return golden.bytes.size() - r.remaining(); };
  r.skip(6);
  const std::uint16_t nodes = r.u16();
  r.skip(2 + 4 + 4 + 4 + 8);
  golden.lengths.push_back({pos(), 8});
  const std::uint64_t iterations = r.u64();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    r.skip(8);
    for (std::uint16_t n = 0; n < nodes; ++n) {
      r.skip(4);
      for (int list = 0; list < 3; ++list) {
        golden.lengths.push_back({pos(), 4});
        r.skip(4 * static_cast<std::size_t>(r.u32()));
      }
    }
  }
  EXPECT_EQ(r.remaining(), 4U);  // only the CRC trailer is left
  return golden;
}

/// Walks a checkpoint frame and records every length field.
Golden checkpoint_golden() {
  Golden golden{cluster::serialize(fixture_checkpoint()), {}};
  wire::Reader r(golden.bytes);
  const auto pos = [&] { return golden.bytes.size() - r.remaining(); };
  const auto list = [&](std::size_t elem_bytes) {
    golden.lengths.push_back({pos(), 4});
    r.skip(elem_bytes * r.u32());
  };
  r.skip(6 + 4);
  list(1);  // name
  r.skip(8 + 8 + 4 + 8 + 8 + 8 + 2 + 2 + 4);
  list(4);  // quotas
  if (r.boolean()) {
    list(17);  // devices
    list(4);   // quotas
    list(8);   // applied weights
    list(4);   // applied targets
    r.skip(8);
  }
  list(14);  // residency
  r.skip(8);
  EXPECT_EQ(r.remaining(), 4U);
  return golden;
}

// ---------------------------------------------------------------------------
// Named regression inputs: each once crashed or misled a decoder
// ---------------------------------------------------------------------------

TEST(WireRegression, PlanHeaderDeclaringATrillionIterationsIsCorrupt) {
  // 2^20 epochs x 2^20 iterations with a matching count: the old decoder
  // reserved 2^40 iterations and threw std::bad_alloc.
  const auto frame = wire::seal(runtime::kPlanMagic, runtime::kPlanVersion, [](wire::Writer& w) {
    w.u16(1);
    w.u16(1);
    w.u32(1U << 20);
    w.u32(1U << 20);
    w.u32(8);
    w.u64(1);
    w.u64(1ULL << 40);
  });
  EXPECT_EQ(runtime::deserialize_plan(frame).status().code(), StatusCode::kCorrupt);

  // The same 40-byte header in the retired version-1 layout.
  std::vector<std::byte> v1;
  wire::Writer w(v1);
  w.u32(runtime::kPlanMagic);
  w.u32(1);
  w.u16(1);
  w.u16(1);
  w.u32(1U << 20);
  w.u32(1U << 20);
  w.u32(8);
  w.u64(1);
  w.u64(1ULL << 40);
  ASSERT_EQ(v1.size(), 40U);
  EXPECT_EQ(runtime::deserialize_plan(v1).status().code(), StatusCode::kCorrupt);
}

TEST(WireRegression, CheckpointResidencyCountOf2To26IsCorrupt) {
  // A CRC-valid checkpoint whose residency count claims 2^26 entries over a
  // few bytes; the old decoder reserved about 1 GiB for it.
  cluster::JobCheckpoint cp;
  cp.name = "bare";
  cp.residency_checksum = runtime::inventory_checksum({});
  auto bytes = cluster::serialize(cp);
  // ... [residency count u32][residency checksum u64][crc32 u32]
  write_le(bytes, bytes.size() - 16, 4, 1U << 26);
  reseal(bytes);
  const AllocationProbe probe;
  const auto parsed = cluster::deserialize(bytes);
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(parsed.status().detail(), "checkpoint: truncated field");
  EXPECT_LE(probe.largest(), allocation_bound(bytes.size()));
}

TEST(WireRegression, InventoryCountWithBit62SetIsCorrupt) {
  // 28 bytes: count * 4 wrapped to 4, so the old size check passed and
  // std::vector threw std::length_error out of fetch_inventory.
  std::vector<std::byte> reply;
  wire::Writer w(reply);
  put_reply_head(w, kInventorySample, 1);
  w.u64((1ULL << 62) | 1);
  w.u32(5);
  w.u64(runtime::inventory_checksum({5}));
  ASSERT_EQ(reply.size(), 28U);
  ScriptedPeer peer;
  peer.answer_with(reply);
  const auto inventory = peer.dm().fetch_inventory(1);
  EXPECT_EQ(inventory.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(peer.dm().corrupt_strikes(), 1U);
}

TEST(WireRegression, MultiGetFoundSizeThatWrapsTheOffsetIsCorrupt) {
  // The first entry's found_size makes offset + found_size wrap past 2^64,
  // so the old bound passed and PayloadArena::acquire threw
  // std::length_error inside the fetch.
  Golden golden = multi_get_reply({5, 6}, {});
  write_le(golden.bytes, golden.lengths[1].offset, 8, ~std::uint64_t{0} - 19);
  ScriptedPeer peer;
  peer.answer_with(golden.bytes);
  const auto results = peer.dm().fetch_remote_many(1, {5, 6}, 0);
  ASSERT_EQ(results.size(), 2U);
  EXPECT_EQ(results[0].status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(results[1].status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(peer.dm().corrupt_strikes(), 1U);
}

TEST(WireRegression, TruncatedSingleFetchReplyIsCorruptAndStrikes) {
  // A reply shorter than its 8-byte head once read as found == 0: an
  // authoritative kNotFound that also reset the peer's failure run.
  ScriptedPeer peer(runtime::FetchPolicy{});
  peer.answer_with(from_hex("050000"));
  const auto fetched = peer.dm().fetch_remote(5, 1);
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(peer.dm().corrupt_strikes(), 1U);
  EXPECT_EQ(peer.dm().retries(), 0U);  // corrupt replies are never retried
}

// ---------------------------------------------------------------------------
// Mutation harness
// ---------------------------------------------------------------------------

/// Seeded mutants of one golden encoding: bit flips, truncations, inflated
/// length fields, splices and garbage. For sealed formats half the mutants
/// get a recomputed CRC so they reach the body decoder.
class Mutator {
 public:
  Mutator(const Golden& golden, std::uint64_t seed, bool sealed)
      : golden_(golden), rng_(seed), sealed_(sealed) {}

  std::vector<std::byte> next() {
    std::vector<std::byte> m = golden_.bytes;
    const std::size_t size = m.size();
    switch (rng_.bounded(golden_.lengths.empty() ? 4 : 5)) {
      case 0: {  // bit flips
        const std::uint64_t flips = 1 + rng_.bounded(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
          m[rng_.bounded(size)] ^= static_cast<std::byte>(1U << rng_.bounded(8));
        }
        break;
      }
      case 1:  // truncation
        m.resize(rng_.bounded(size));
        break;
      case 2: {  // splice: golden[0, a) + golden[c, c + len) + golden[b, end)
        std::uint64_t a = rng_.bounded(size + 1), b = rng_.bounded(size + 1);
        if (a > b) std::swap(a, b);
        const std::uint64_t c = rng_.bounded(size);
        const std::uint64_t len = rng_.bounded(size - c + 1);
        m.assign(golden_.bytes.begin(), golden_.bytes.begin() + a);
        m.insert(m.end(), golden_.bytes.begin() + c, golden_.bytes.begin() + c + len);
        m.insert(m.end(), golden_.bytes.begin() + b, golden_.bytes.end());
        break;
      }
      case 3: {  // garbage of a similar length
        m.resize(rng_.bounded(2 * size + 1));
        for (auto& b : m) b = static_cast<std::byte>(rng_.bounded(256));
        break;
      }
      default: {  // inflated length field
        const LengthField field = golden_.lengths[rng_.bounded(golden_.lengths.size())];
        write_le(m, field.offset, field.width, inflated(m, field));
        break;
      }
    }
    if (sealed_ && rng_.bounded(2) == 0) reseal(m);
    return m;
  }

 private:
  std::uint64_t inflated(const std::vector<std::byte>& m, const LengthField& field) {
    std::uint64_t current = 0;
    for (std::size_t i = 0; i < field.width; ++i) {
      current |= static_cast<std::uint64_t>(m[field.offset + i]) << (8 * i);
    }
    switch (rng_.bounded(7)) {
      case 0: return current + 1 + rng_.bounded(16);
      case 1: return m.size() - field.offset;
      case 2: return 1ULL << 26;
      case 3: return 0xFFFFFFFFULL - rng_.bounded(16);
      case 4: return (1ULL << 62) | rng_.bounded(16);
      case 5: return ~std::uint64_t{0} - rng_.bounded(64);
      default: return rng_();
    }
  }

  const Golden& golden_;
  Rng rng_;
  bool sealed_;
};

enum class Verdict { kAccepted, kRejected, kIncoherent };

struct Tally {
  int accepted = 0;
  int rejected = 0;
  int incoherent = 0;
  int escapes = 0;
  int overallocations = 0;  ///< mutants whose decode asked for too much heap
};

template <typename Decode>
Tally run_mutants(const char* format, const Golden& golden, std::uint64_t seed, bool sealed,
                  Decode&& decode) {
  Mutator mutator(golden, seed, sealed);
  Tally tally;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const std::vector<std::byte> mutant = mutator.next();
    const AllocationProbe probe;
    try {
      switch (decode(mutant)) {
        case Verdict::kAccepted: ++tally.accepted; break;
        case Verdict::kRejected: ++tally.rejected; break;
        case Verdict::kIncoherent: ++tally.incoherent; break;
      }
    } catch (...) {
      ++tally.escapes;
    }
    if (probe.largest() > allocation_bound(mutant.size())) ++tally.overallocations;
  }
  std::printf("[ harness  ] %s: %d mutants, %d accepted, %d rejected, %d incoherent, "
              "%d escaped, %d over-allocated\n",
              format, kMutantsPerFormat, tally.accepted, tally.rejected, tally.incoherent,
              tally.escapes, tally.overallocations);
  return tally;
}

void expect_clean(const Tally& tally) {
  EXPECT_EQ(tally.escapes, 0);
  EXPECT_EQ(tally.incoherent, 0);
  EXPECT_EQ(tally.overallocations, 0);
  EXPECT_GT(tally.rejected, kMutantsPerFormat / 2);
  EXPECT_GT(tally.accepted, 0);  // the coherence checks ran
}

TEST(WireMutation, PlanDecoderIsTotal) {
  const Golden golden = plan_golden();
  expect_clean(run_mutants("plan v2", golden, 0x9A17, true, [](const auto& mutant) {
    const auto plan = runtime::deserialize_plan(mutant);
    if (!plan.ok()) {
      return plan.status().code() == StatusCode::kCorrupt ? Verdict::kRejected
                                                          : Verdict::kIncoherent;
    }
    // The encoding is canonical: an accepted mutant is exactly the encoding
    // of what it decoded to, so every count matched its list.
    return runtime::serialize_plan(*plan) == mutant ? Verdict::kAccepted : Verdict::kIncoherent;
  }));
}

TEST(WireMutation, CheckpointDecoderIsTotal) {
  const Golden golden = checkpoint_golden();
  expect_clean(run_mutants("checkpoint", golden, 0xC4EC, true, [](const auto& mutant) {
    const auto cp = cluster::deserialize(mutant);
    if (!cp.ok()) {
      return cp.status().code() == StatusCode::kCorrupt ? Verdict::kRejected
                                                        : Verdict::kIncoherent;
    }
    std::vector<SampleId> samples;
    for (const auto& entry : cp->residency) samples.push_back(entry.sample);
    const bool coherent = runtime::inventory_checksum(samples) == cp->residency_checksum &&
                          cluster::deserialize(cluster::serialize(*cp)).ok();
    return coherent ? Verdict::kAccepted : Verdict::kIncoherent;
  }));
}

TEST(WireMutation, SingleFetchReplyDecoderIsTotal) {
  const Golden golden = single_reply(5);
  ScriptedPeer peer;
  expect_clean(run_mutants("single-fetch reply", golden, 0x51F7, false, [&](const auto& mutant) {
    peer.answer_with(mutant);
    const auto fetched = peer.dm().fetch_remote(5, 1);
    if (!fetched.ok()) {
      const StatusCode code = fetched.status().code();
      return code == StatusCode::kCorrupt || code == StatusCode::kNotFound
                 ? Verdict::kRejected
                 : Verdict::kIncoherent;
    }
    return runtime::verify_sample_payload(5, *fetched) ? Verdict::kAccepted
                                                       : Verdict::kIncoherent;
  }));
}

TEST(WireMutation, MultiGetReplyDecoderIsTotal) {
  const std::vector<SampleId> samples = {5, 2000, 6};
  const Golden golden = multi_get_reply(samples, {2000});
  ScriptedPeer peer;
  expect_clean(run_mutants("multi-get reply", golden, 0x3A61, false, [&](const auto& mutant) {
    peer.answer_with(mutant);
    const auto results = peer.dm().fetch_remote_many(1, samples, 0);
    if (results.size() != samples.size()) return Verdict::kIncoherent;
    bool all_ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        if (!runtime::verify_sample_payload(samples[i], **results[i])) return Verdict::kIncoherent;
        continue;
      }
      const StatusCode code = results[i].status().code();
      if (code != StatusCode::kCorrupt && code != StatusCode::kNotFound) {
        return Verdict::kIncoherent;
      }
      // The golden's miss is an authoritative answer, not a rejection.
      if (!(samples[i] == 2000 && code == StatusCode::kNotFound)) all_ok = false;
    }
    return all_ok ? Verdict::kAccepted : Verdict::kRejected;
  }));
}

TEST(WireMutation, InventoryReplyDecoderIsTotal) {
  const Golden golden = inventory_reply({5, 6, 7, 11, 13});
  ScriptedPeer peer;
  expect_clean(run_mutants("inventory reply", golden, 0x1417, false, [&](const auto& mutant) {
    peer.answer_with(mutant);
    const auto inventory = peer.dm().fetch_inventory(1);
    if (!inventory.ok()) {
      return inventory.status().code() == StatusCode::kCorrupt ? Verdict::kRejected
                                                               : Verdict::kIncoherent;
    }
    // Accepted: the reply is the encoding of the ids it decoded to, up to
    // the head's padding bytes.
    auto expected = inventory_reply(*inventory).bytes;
    if (expected.size() != mutant.size()) return Verdict::kIncoherent;
    std::copy(mutant.begin() + 5, mutant.begin() + 8, expected.begin() + 5);
    return expected == mutant ? Verdict::kAccepted : Verdict::kIncoherent;
  }));
}

}  // namespace
}  // namespace lobster
