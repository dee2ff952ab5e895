#include "sc/wire_codec.hpp"

#include <array>
#include <cstring>

#include "tensor/serialize.hpp"  // crc32

namespace mtlsplit::sc {

namespace {

constexpr uint32_t kFrameMagic = 0x4D545746;  // 'MTWF'
constexpr uint8_t kCodecStored = 0;
constexpr uint8_t kCodecRleRange = 1;

// ------------------------------------------------------------------ RLE
//
// Zero-run/repeat pre-pass specialised for int8 bottleneck payloads: the
// quantised Z_b of a ReLU'd feature map is dominated by runs of the
// zero-point code (whatever byte value that maps to). Format: literals go
// out as-is; whenever two consecutive equal literals have been emitted, a
// LEB128 varint follows with the number of *further* repeats, and the
// repeat detector resets. Worst case (pairs everywhere) expands by 1.5x
// before entropy coding — the stored-frame fallback bounds the final size
// regardless.

void put_varint(std::vector<uint8_t>& out, uint64_t v) {
  do {
    uint8_t byte = static_cast<uint8_t>(v & 0x7F);
    v >>= 7;
    if (v != 0) byte |= 0x80;
    out.push_back(byte);
  } while (v != 0);
}

std::vector<uint8_t> rle_encode(const std::vector<uint8_t>& raw) {
  std::vector<uint8_t> out;
  out.reserve(raw.size() / 2 + 16);
  int prev = -1;
  size_t i = 0;
  while (i < raw.size()) {
    const uint8_t b = raw[i];
    out.push_back(b);
    if (prev == b) {
      size_t run = 0;
      while (i + 1 + run < raw.size() && raw[i + 1 + run] == b) ++run;
      put_varint(out, run);
      i += 1 + run;
      prev = -1;  // a fresh pair is required to open the next run
    } else {
      prev = b;
      ++i;
    }
  }
  return out;
}

// ----------------------------------------------------- range coder core
//
// Carry-aware binary range coder (LZMA-style shift_low) over an adaptive
// 11-bit probability model. Bytes are coded as 8 binary decisions down a
// 255-node context tree — the classic order-0 adaptive byte model.

constexpr uint32_t kTop = 1u << 24;
constexpr int kProbBits = 11;
constexpr uint16_t kProbInit = 1u << (kProbBits - 1);
constexpr int kAdaptShift = 4;

struct ByteModel {
  std::array<uint16_t, 256> probs;  // tree nodes indexed 1..255
  ByteModel() { probs.fill(kProbInit); }
};

class RangeEncoder {
 public:
  explicit RangeEncoder(std::vector<uint8_t>& out) : out_(&out) {}

  void encode_bit(uint16_t& prob, int bit) {
    const uint32_t bound = (range_ >> kProbBits) * prob;
    if (bit == 0) {
      range_ = bound;
      prob = static_cast<uint16_t>(prob +
                                   (((1u << kProbBits) - prob) >> kAdaptShift));
    } else {
      low_ += bound;
      range_ -= bound;
      prob = static_cast<uint16_t>(prob - (prob >> kAdaptShift));
    }
    while (range_ < kTop) {
      range_ <<= 8;
      shift_low();
    }
  }

  void encode_byte(ByteModel& m, uint8_t byte) {
    uint32_t ctx = 1;
    for (int k = 7; k >= 0; --k) {
      const int bit = (byte >> k) & 1;
      encode_bit(m.probs[ctx], bit);
      ctx = (ctx << 1) | static_cast<uint32_t>(bit);
    }
  }

  void flush() {
    for (int i = 0; i < 5; ++i) shift_low();
  }

 private:
  void shift_low() {
    if (static_cast<uint32_t>(low_) < 0xFF000000u || (low_ >> 32) != 0) {
      uint8_t carry = static_cast<uint8_t>(low_ >> 32);
      out_->push_back(static_cast<uint8_t>(cache_ + carry));
      while (pending_ > 0) {
        out_->push_back(static_cast<uint8_t>(0xFF + carry));
        --pending_;
      }
      cache_ = static_cast<uint8_t>(low_ >> 24);
    } else {
      ++pending_;
    }
    low_ = (low_ & 0x00FFFFFFu) << 8;
  }

  std::vector<uint8_t>* out_;
  uint64_t low_ = 0;
  uint32_t range_ = 0xFFFFFFFFu;
  uint8_t cache_ = 0;
  int64_t pending_ = 0;
};

class RangeDecoder {
 public:
  RangeDecoder(const uint8_t* data, size_t len) : p_(data), end_(data + len) {
    // The encoder's first shift_low always emits the initial cache byte
    // (0); skip it and load the 32-bit code window.
    (void)next_byte();
    for (int i = 0; i < 4; ++i) code_ = (code_ << 8) | next_byte();
  }

  int decode_bit(uint16_t& prob) {
    const uint32_t bound = (range_ >> kProbBits) * prob;
    int bit;
    if (code_ < bound) {
      range_ = bound;
      prob = static_cast<uint16_t>(prob +
                                   (((1u << kProbBits) - prob) >> kAdaptShift));
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      prob = static_cast<uint16_t>(prob - (prob >> kAdaptShift));
      bit = 1;
    }
    while (range_ < kTop) {
      range_ <<= 8;
      code_ = (code_ << 8) | next_byte();
    }
    return bit;
  }

  uint8_t decode_byte(ByteModel& m) {
    uint32_t ctx = 1;
    for (int k = 0; k < 8; ++k)
      ctx = (ctx << 1) | static_cast<uint32_t>(decode_bit(m.probs[ctx]));
    return static_cast<uint8_t>(ctx & 0xFF);
  }

 private:
  // Bounds-checked: reads past the payload return 0 instead of touching
  // memory. The frame CRC makes that path unreachable for intact frames;
  // for hostile input it keeps the decoder loop finite and defined, and
  // the raw-size accounting in decode_frame rejects the result.
  uint8_t next_byte() { return p_ < end_ ? *p_++ : 0; }

  const uint8_t* p_;
  const uint8_t* end_;
  uint32_t range_ = 0xFFFFFFFFu;
  uint32_t code_ = 0;
};

// Context set shared by encoder and decoder. Literals are coded under a
// coarse order-1 context (the previous literal's high nibble — int8
// bottleneck payloads cluster around the zero-point code, so "was the
// neighbour small or large" is most of the predictable structure), and
// run-length varint bytes get their own model so they cannot pollute the
// literal statistics.
struct RleRangeModels {
  std::array<ByteModel, 16> literal;  // indexed by previous literal >> 4
  ByteModel run_length;
};

std::vector<uint8_t> range_encode(const std::vector<uint8_t>& rle) {
  std::vector<uint8_t> out;
  out.reserve(rle.size() / 2 + 16);
  RangeEncoder enc(out);
  RleRangeModels m;
  // Mirrors rle_encode's structure: literal, then a varint after a pair.
  uint8_t ctx = 0;
  int prev = -1;
  size_t i = 0;
  while (i < rle.size()) {
    const uint8_t b = rle[i++];
    enc.encode_byte(m.literal[ctx], b);
    ctx = b >> 4;
    if (prev == b) {
      for (;;) {
        const uint8_t vb = rle[i++];
        enc.encode_byte(m.run_length, vb);
        if ((vb & 0x80) == 0) break;
      }
      prev = -1;
    } else {
      prev = b;
    }
  }
  enc.flush();
  return out;
}

// Decodes the RLE + range-coded payload back to exactly @p raw_size
// bytes. Every expansion step is bounds-checked against raw_size, so a
// corrupt payload (unreachable past the CRC, but decode must not rely on
// that) raises WireCodecError instead of overrunning or spinning.
std::vector<uint8_t> rle_range_decode(const uint8_t* payload, size_t len,
                                      uint64_t raw_size) {
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(raw_size));
  RangeDecoder dec(payload, len);
  RleRangeModels m;
  uint8_t ctx = 0;
  int prev = -1;
  while (out.size() < raw_size) {
    const uint8_t b = dec.decode_byte(m.literal[ctx]);
    ctx = b >> 4;
    out.push_back(b);
    if (prev == b) {
      uint64_t run = 0;
      int shift = 0;
      for (;;) {
        if (shift > 63)
          throw WireCodecError("wire frame: run length varint overflows");
        const uint8_t vb = dec.decode_byte(m.run_length);
        run |= static_cast<uint64_t>(vb & 0x7F) << shift;
        if ((vb & 0x80) == 0) break;
        shift += 7;
      }
      if (run > raw_size - out.size())
        throw WireCodecError("wire frame: run length exceeds payload size");
      out.insert(out.end(), static_cast<size_t>(run), b);
      prev = -1;
    } else {
      prev = b;
    }
  }
  return out;
}

// ---------------------------------------------------------- frame layout

template <typename T>
void put(std::vector<uint8_t>& out, T value) {
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

std::vector<uint8_t> build_frame(uint8_t codec_id, uint64_t raw_size,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(payload.size() + static_cast<size_t>(kFrameHeaderBytes));
  put(out, kFrameMagic);
  put(out, codec_id);
  put(out, raw_size);
  out.insert(out.end(), payload.begin(), payload.end());
  put(out, crc32(out.data(), out.size()));
  return out;
}

}  // namespace

std::vector<uint8_t> encode_frame(const std::vector<uint8_t>& raw,
                                  WireCodec codec) {
  if (codec == WireCodec::kEntropy) {
    const std::vector<uint8_t> packed = range_encode(rle_encode(raw));
    if (packed.size() < raw.size())
      return build_frame(kCodecRleRange, raw.size(), packed);
    // Incompressible: store — the frame never exceeds raw + header.
  }
  return build_frame(kCodecStored, raw.size(), raw);
}

std::vector<uint8_t> decode_frame(const std::vector<uint8_t>& frame) {
  if (static_cast<int64_t>(frame.size()) < kFrameHeaderBytes)
    throw WireCodecError("wire frame: truncated header");
  // CRC gates everything: no header field is trusted before the whole
  // frame has checked out.
  const size_t body = frame.size() - sizeof(uint32_t);
  uint32_t stored;
  std::memcpy(&stored, frame.data() + body, sizeof(stored));
  if (crc32(frame.data(), body) != stored)
    throw WireCodecError("wire frame: CRC mismatch (corrupted frame)");

  uint32_t magic;
  std::memcpy(&magic, frame.data(), sizeof(magic));
  if (magic != kFrameMagic) throw WireCodecError("wire frame: bad magic");
  const uint8_t codec_id = frame[4];
  uint64_t raw_size;
  std::memcpy(&raw_size, frame.data() + 5, sizeof(raw_size));
  const uint8_t* payload = frame.data() + (kFrameHeaderBytes - 4);
  const size_t payload_len = body - static_cast<size_t>(kFrameHeaderBytes - 4);

  if (codec_id == kCodecStored) {
    if (payload_len != raw_size)
      throw WireCodecError("wire frame: stored payload size mismatch");
    return std::vector<uint8_t>(payload, payload + payload_len);
  }
  if (codec_id == kCodecRleRange) {
    // A CRC-valid hostile frame could still declare an absurd raw size
    // (CRC32 is not keyed); the cap keeps the typed-error/no-hang
    // contract honest. 256 MB is orders of magnitude above any Z_b.
    if (raw_size > kMaxRawSize)
      throw WireCodecError("wire frame: implausible raw size");
    return rle_range_decode(payload, payload_len, raw_size);
  }
  throw WireCodecError("wire frame: unknown codec id");
}

}  // namespace mtlsplit::sc
