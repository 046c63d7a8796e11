#include "common/wire.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace lobster::wire {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) std::memcpy(reserve(s.size()), s.data(), s.size());
}

std::string Reader::str() {
  const auto at = bytes(count(1));
  return std::string(reinterpret_cast<const char*>(at.data()), at.size());
}

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  static const auto table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    crc = table[(crc ^ static_cast<std::uint8_t>(b)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<Reader> open(std::span<const std::byte> frame, std::uint32_t magic,
                    std::uint16_t version, const std::string& what) {
  constexpr std::size_t kTrailer = sizeof(std::uint32_t);
  if (frame.size() < sizeof(std::uint32_t) + sizeof(std::uint16_t) + kTrailer) {
    return Status::corrupt(what + ": buffer shorter than header + trailer");
  }
  const auto sealed = frame.first(frame.size() - kTrailer);
  if (crc32(sealed) != Reader(frame.last(kTrailer)).u32()) {
    return Status::corrupt(what + ": CRC mismatch");
  }
  Reader body(sealed);
  if (body.u32() != magic) return Status::corrupt(what + ": bad magic");
  if (body.u16() != version) return Status::corrupt(what + ": unsupported version");
  return body;
}

Status write_file(const std::string& path, std::span<const std::byte> bytes,
                  const std::string& what) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::invalid(what + ": cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return Status::invalid(what + ": short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::invalid(what + ": rename to " + path + " failed");
  }
  return Status{};
}

Result<std::vector<std::byte>> read_file(const std::string& path, const std::string& what) {
  // file_size fails for a directory or device, whose stream size would
  // otherwise size the buffer.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  std::ifstream in(path, std::ios::binary);
  if (error || !in.is_open()) return Status::not_found(what + ": no file at " + path);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!in.good()) return Status::corrupt(what + ": short read from " + path);
  return bytes;
}

}  // namespace lobster::wire
