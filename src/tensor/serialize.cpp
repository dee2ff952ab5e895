#include "tensor/serialize.hpp"

#include <array>
#include <cstring>

namespace mtlsplit {

namespace {

constexpr uint32_t kMagic = 0x4D54535A;  // 'MTSZ'

const std::array<uint32_t, 256>& crc_table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

template <typename T>
void put(std::vector<uint8_t>& out, T value) {
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T get(const std::vector<uint8_t>& in, size_t& pos) {
  check_arg(pos + sizeof(T) <= in.size(), "deserialize: truncated message");
  T value;
  std::memcpy(&value, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return value;
}

void append_crc(std::vector<uint8_t>& out) {
  put(out, crc32(out.data(), out.size()));
}

}  // namespace

uint32_t crc32(const uint8_t* data, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  const auto& t = crc_table();
  for (size_t i = 0; i < len; ++i) c = t[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> serialize_tensor(const Tensor& t) {
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(wire_size_f32(t.shape())));
  put(out, kMagic);
  put(out, static_cast<uint8_t>(WireDtype::kFloat32));
  put(out, static_cast<uint8_t>(t.dim()));
  for (int64_t d : t.shape()) put(out, d);
  const auto* payload = reinterpret_cast<const uint8_t*>(t.data());
  out.insert(out.end(), payload,
             payload + static_cast<size_t>(t.numel()) * sizeof(float));
  append_crc(out);
  return out;
}

std::vector<uint8_t> serialize_int8(const Shape& shape,
                                    const std::vector<int8_t>& values,
                                    float scale, int32_t zero_point) {
  check_arg(static_cast<int64_t>(values.size()) == numel(shape),
            "serialize_int8: value count does not match shape");
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(wire_size_i8(shape)));
  put(out, kMagic);
  put(out, static_cast<uint8_t>(WireDtype::kInt8));
  put(out, static_cast<uint8_t>(shape.size()));
  for (int64_t d : shape) put(out, d);
  put(out, scale);
  put(out, zero_point);
  const auto* payload = reinterpret_cast<const uint8_t*>(values.data());
  out.insert(out.end(), payload, payload + values.size());
  append_crc(out);
  return out;
}

WireTensor deserialize_tensor(const std::vector<uint8_t>& bytes) {
  check_arg(bytes.size() >= 10, "deserialize: message too short");
  const size_t body = bytes.size() - sizeof(uint32_t);
  uint32_t stored;
  std::memcpy(&stored, bytes.data() + body, sizeof(stored));
  check_arg(crc32(bytes.data(), body) == stored,
            "deserialize: CRC mismatch (corrupted message)");

  size_t pos = 0;
  check_arg(get<uint32_t>(bytes, pos) == kMagic, "deserialize: bad magic");
  WireTensor wt;
  const auto dtype = get<uint8_t>(bytes, pos);
  check_arg(dtype <= 1, "deserialize: unknown dtype");
  wt.dtype = static_cast<WireDtype>(dtype);
  const auto ndim = get<uint8_t>(bytes, pos);
  wt.shape.resize(ndim);
  for (auto& d : wt.shape) {
    d = get<int64_t>(bytes, pos);
    check_arg(d >= 0, "deserialize: negative dimension");
  }
  const int64_t n = numel(wt.shape);
  if (wt.dtype == WireDtype::kFloat32) {
    check_arg(pos + static_cast<size_t>(n) * sizeof(float) == body,
              "deserialize: payload size mismatch");
    std::vector<float> data(static_cast<size_t>(n));
    std::memcpy(data.data(), bytes.data() + pos,
                static_cast<size_t>(n) * sizeof(float));
    wt.f32 = Tensor(wt.shape, std::move(data));
  } else {
    wt.scale = get<float>(bytes, pos);
    wt.zero_point = get<int32_t>(bytes, pos);
    check_arg(pos + static_cast<size_t>(n) == body,
              "deserialize: payload size mismatch");
    wt.i8.resize(static_cast<size_t>(n));
    std::memcpy(wt.i8.data(), bytes.data() + pos, static_cast<size_t>(n));
  }
  return wt;
}

int64_t wire_size_f32(const Shape& shape) {
  return 4 + 1 + 1 + 8 * static_cast<int64_t>(shape.size()) +
         4 * numel(shape) + 4;
}

int64_t wire_size_i8(const Shape& shape) {
  return 4 + 1 + 1 + 8 * static_cast<int64_t>(shape.size()) + 4 + 4 +
         numel(shape) + 4;
}

}  // namespace mtlsplit
