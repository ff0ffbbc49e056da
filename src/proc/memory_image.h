// The movable memory image of a process: code, data, and stack (Fig. 2-2).
//
// The code segment embeds the registered program name (our stand-in for
// machine code) followed by padding up to the configured code size, so that
// migrating a "bigger program" really does move more bytes.  The data segment
// is plain addressable memory that programs read and write through the kernel
// and that data-area links expose to other processes.  The stack segment is
// opaque ballast that models the execution stack.

#ifndef DEMOS_PROC_MEMORY_IMAGE_H_
#define DEMOS_PROC_MEMORY_IMAGE_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/base/bytes.h"
#include "src/base/status.h"

namespace demos {

class MemoryImage {
 public:
  MemoryImage() = default;

  // Build a fresh image for program `program_name` with the given segment
  // sizes.  The code segment is at least large enough for the embedded name.
  static MemoryImage Create(const std::string& program_name, std::uint32_t code_size,
                            std::uint32_t data_size, std::uint32_t stack_size) {
    MemoryImage image;
    ByteWriter code;
    code.Str(program_name);
    image.code_ = code.Take();
    if (image.code_.size() < code_size) {
      image.code_.resize(code_size, 0x90);  // NOP padding
    }
    image.data_.resize(data_size, 0);
    image.stack_.resize(stack_size, 0);
    return image;
  }

  // Recover the embedded program name from the code segment.
  std::string ProgramName() const {
    ByteReader r(code_);
    return r.Str();
  }

  Bytes ReadData(std::uint32_t offset, std::uint32_t length) const {
    Bytes out;
    if (offset > data_.size() || length > data_.size() - offset) {
      return out;  // caller validates; empty signals out-of-range
    }
    out.assign(data_.begin() + offset, data_.begin() + offset + length);
    return out;
  }

  bool ReadDataInto(std::uint32_t offset, std::uint8_t* out, std::uint32_t length) const {
    if (offset > data_.size() || length > data_.size() - offset) {
      return false;
    }
    std::copy(data_.begin() + offset, data_.begin() + offset + length, out);
    return true;
  }

  Status WriteData(std::uint32_t offset, const Bytes& bytes) {
    if (offset > data_.size() || bytes.size() > data_.size() - offset) {
      return InvalidArgumentError("data write out of range: offset " + std::to_string(offset) +
                                  " len " + std::to_string(bytes.size()) + " segment " +
                                  std::to_string(data_.size()));
    }
    std::copy(bytes.begin(), bytes.end(), data_.begin() + offset);
    return OkStatus();
  }

  std::uint32_t code_size() const { return static_cast<std::uint32_t>(code_.size()); }
  std::uint32_t data_size() const { return static_cast<std::uint32_t>(data_.size()); }
  std::uint32_t stack_size() const { return static_cast<std::uint32_t>(stack_.size()); }
  std::size_t TotalSize() const { return code_.size() + data_.size() + stack_.size(); }

  const Bytes& code() const { return code_; }
  const Bytes& data() const { return data_; }
  const Bytes& stack() const { return stack_; }
  Bytes& mutable_stack() { return stack_; }

  // Serialize the full image (the "program" data move of migration step 5).
  Bytes Serialize() const {
    ByteWriter w;
    w.Blob(code_);
    w.Blob(data_);
    w.Blob(stack_);
    return w.Take();
  }

  static Result<MemoryImage> Deserialize(const Bytes& bytes) {
    ByteReader r(bytes);
    MemoryImage image;
    image.code_ = r.Blob();
    image.data_ = r.Blob();
    image.stack_ = r.Blob();
    if (!r.ok()) {
      return InvalidArgumentError("corrupt memory image (" + std::to_string(bytes.size()) +
                                  " bytes)");
    }
    return image;
  }

 private:
  Bytes code_;
  Bytes data_;
  Bytes stack_;
};

}  // namespace demos

#endif  // DEMOS_PROC_MEMORY_IMAGE_H_
