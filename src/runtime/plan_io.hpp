// Plan serialization: the artifact Lobster's offline component hands to the
// online runtime (§4.5). Plans travel in the sealed frame of
// common/wire.hpp (little-endian fields, CRC32 trailer), format version 2:
//
//   [magic u32][version u16]
//   [nodes u16][gpus u16][epochs u32][iters_per_epoch u32][batch u32]
//   [seed u64][iteration count u64]
//   then per iteration:
//     [iter u64]
//     per node: [preproc u32][#load u32][load...u32]
//               [#prefetch u32][prefetch...u32][#evict u32][evict...u32]
//   [crc32 u32]
//
// Decoding never throws: a bad magic, version (version 1 files are not
// read), CRC, truncation, length field its input cannot back, or broken
// structure (zero dimensions, per-GPU list length, iteration count other
// than epochs * I, trailing bytes) comes back as StatusCode::kCorrupt, so a
// damaged file fails loudly instead of yielding a bogus plan.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "runtime/plan.hpp"

namespace lobster::runtime {

inline constexpr std::uint32_t kPlanMagic = 0x4C425354;  // "LBST"
inline constexpr std::uint16_t kPlanVersion = 2;

/// Serializes a plan to bytes.
std::vector<std::byte> serialize_plan(const Plan& plan);

/// Parses a serialized plan; kCorrupt with a detail naming what broke.
Result<Plan> deserialize_plan(std::span<const std::byte> bytes);

/// File wrappers. save_plan writes a temp file and renames it (kInvalid on
/// I/O failure); load_plan returns kNotFound for a missing file and
/// kCorrupt for a damaged one.
Status save_plan(const Plan& plan, const std::string& path);
Result<Plan> load_plan(const std::string& path);

}  // namespace lobster::runtime
