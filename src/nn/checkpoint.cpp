#include "nn/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "tensor/serialize.hpp"

namespace mtlsplit::nn {

namespace {

constexpr uint32_t kMagic = 0x4D54434B;  // 'MTCK'

template <typename T>
void put(std::vector<uint8_t>& out, T value) {
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T get(const std::vector<uint8_t>& in, size_t& pos) {
  check_arg(pos + sizeof(T) <= in.size(), "checkpoint: truncated data");
  T value;
  std::memcpy(&value, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return value;
}

}  // namespace

namespace {

void put_record(std::vector<uint8_t>& out, const std::string& name,
                const Tensor& value) {
  check_arg(name.size() < (1u << 16), "checkpoint: name too long");
  put(out, static_cast<uint16_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
  const auto wire = serialize_tensor(value);
  put(out, static_cast<uint32_t>(wire.size()));
  out.insert(out.end(), wire.begin(), wire.end());
}

Tensor get_record(const std::vector<uint8_t>& bytes, size_t& pos,
                  const std::string& expected_name, const Shape& shape) {
  const auto name_len = get<uint16_t>(bytes, pos);
  check_arg(pos + name_len <= bytes.size(), "checkpoint: truncated name");
  const std::string name(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                         bytes.begin() +
                             static_cast<std::ptrdiff_t>(pos + name_len));
  pos += name_len;
  check_arg(name == expected_name,
            "checkpoint: record name mismatch, file '", name, "' vs model '",
            expected_name, "'");
  const auto wire_len = get<uint32_t>(bytes, pos);
  check_arg(pos + wire_len <= bytes.size(), "checkpoint: truncated tensor");
  const std::vector<uint8_t> wire(
      bytes.begin() + static_cast<std::ptrdiff_t>(pos),
      bytes.begin() + static_cast<std::ptrdiff_t>(pos + wire_len));
  pos += wire_len;
  const WireTensor wt = deserialize_tensor(wire);
  check_arg(wt.dtype == WireDtype::kFloat32,
            "checkpoint: unexpected tensor dtype");
  check_arg(wt.f32.shape() == shape,
            "checkpoint: shape mismatch for '", expected_name, "': file ",
            wt.f32.shape(), " vs model ", shape);
  return wt.f32;
}

}  // namespace

std::vector<uint8_t> parameters_to_bytes(
    const std::vector<Parameter*>& params,
    const std::vector<Tensor*>& buffers) {
  std::vector<uint8_t> out;
  put(out, kMagic);
  put(out, static_cast<uint32_t>(params.size()));
  put(out, static_cast<uint32_t>(buffers.size()));
  for (const Parameter* p : params) {
    check_arg(p != nullptr, "checkpoint: null parameter");
    put_record(out, p->name, p->value);
  }
  for (size_t i = 0; i < buffers.size(); ++i) {
    check_arg(buffers[i] != nullptr, "checkpoint: null buffer");
    put_record(out, "buffer_" + std::to_string(i), *buffers[i]);
  }
  return out;
}

void parameters_from_bytes(const std::vector<Parameter*>& params,
                           const std::vector<uint8_t>& bytes,
                           const std::vector<Tensor*>& buffers) {
  size_t pos = 0;
  check_arg(get<uint32_t>(bytes, pos) == kMagic, "checkpoint: bad magic");
  const auto pcount = get<uint32_t>(bytes, pos);
  const auto bcount = get<uint32_t>(bytes, pos);
  check_arg(pcount == params.size(),
            "checkpoint: file has ", pcount, " parameters, model has ",
            params.size());
  check_arg(bcount == buffers.size(),
            "checkpoint: file has ", bcount, " buffers, model has ",
            buffers.size());
  for (Parameter* p : params) {
    check_arg(p != nullptr, "checkpoint: null parameter");
    p->value = get_record(bytes, pos, p->name, p->value.shape());
    p->grad = Tensor(p->value.shape());
  }
  for (size_t i = 0; i < buffers.size(); ++i) {
    check_arg(buffers[i] != nullptr, "checkpoint: null buffer");
    *buffers[i] = get_record(bytes, pos, "buffer_" + std::to_string(i),
                             buffers[i]->shape());
  }
  check_arg(pos == bytes.size(), "checkpoint: trailing bytes");
}

void save_parameters(const std::vector<Parameter*>& params,
                     const std::string& path,
                     const std::vector<Tensor*>& buffers) {
  const auto bytes = parameters_to_bytes(params, buffers);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("checkpoint: cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("checkpoint: write failed for " + path);
}

void load_parameters(const std::vector<Parameter*>& params,
                     const std::string& path,
                     const std::vector<Tensor*>& buffers) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("checkpoint: cannot open " + path);
  const auto size = f.tellg();
  f.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("checkpoint: read failed for " + path);
  parameters_from_bytes(params, bytes, buffers);
}

void save_module(Module& m, const std::string& path) {
  save_parameters(m.parameters(), path, m.buffers());
}

void load_module(Module& m, const std::string& path) {
  load_parameters(m.parameters(), path, m.buffers());
}

}  // namespace mtlsplit::nn
