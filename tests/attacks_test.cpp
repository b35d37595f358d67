// Unit tests for the attack layer: each infection technique must make
// exactly the byte-level changes it claims, and nothing else.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/byte_patch.hpp"
#include "attacks/dll_import_inject.hpp"
#include "attacks/guest_writer.hpp"
#include "attacks/iat_hook.hpp"
#include "attacks/inline_hook.hpp"
#include "attacks/opcode_replace.hpp"
#include "attacks/stub_patch.hpp"
#include "cloud/environment.hpp"
#include "pe/builder.hpp"
#include "pe/constants.hpp"
#include "pe/imports.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "x86/decoder.hpp"

namespace {

using namespace mc;
using namespace mc::attacks;

class AttacksTest : public ::testing::Test {
 protected:
  AttacksTest() {
    cloud::CloudConfig cfg;
    cfg.guest_count = 3;
    env_ = std::make_unique<cloud::CloudEnvironment>(cfg);
  }

  vmm::DomainId victim() const { return env_->guests()[0]; }

  std::unique_ptr<cloud::CloudEnvironment> env_;
};

// ---- GuestMemoryWriter ---------------------------------------------------------
TEST_F(AttacksTest, WriterRoundTrip) {
  GuestMemoryWriter writer(*env_, victim());
  std::uint32_t base = 0;
  writer.read_module_image("hal.dll", &base);
  const Bytes payload = {0xDE, 0xAD};
  writer.write(base + 0x100, payload);
  EXPECT_EQ(writer.read(base + 0x100, 2), payload);
}

TEST_F(AttacksTest, WriterRejectsUnknownModule) {
  GuestMemoryWriter writer(*env_, victim());
  EXPECT_THROW(writer.read_module_image("ghost.sys"), NotFoundError);
}

// ---- E1: opcode replacement ------------------------------------------------------
TEST_F(AttacksTest, OpcodeReplaceOnlyTouchesTextRawData) {
  const Bytes& clean = env_->golden().file("hal.dll");
  const Bytes infected = OpcodeReplaceAttack::infect_file(clean);
  ASSERT_EQ(infected.size(), clean.size());

  // Locate .text raw range.
  const pe::DosHeader dos = pe::DosHeader::parse(clean);
  const pe::FileHeader fh = pe::FileHeader::parse(clean, dos.e_lfanew + 4);
  std::size_t off = dos.e_lfanew + pe::kNtHeadersPrefixSize +
                    fh.SizeOfOptionalHeader;
  pe::SectionHeader text;
  for (std::uint16_t i = 0; i < fh.NumberOfSections; ++i) {
    const auto sh = pe::SectionHeader::parse(clean, off);
    if (sh.name() == ".text") {
      text = sh;
    }
    off += pe::kSectionHeaderSize;
  }

  std::size_t first_diff = clean.size();
  std::size_t last_diff = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != infected[i]) {
      first_diff = std::min(first_diff, i);
      last_diff = std::max(last_diff, i);
    }
  }
  ASSERT_LT(first_diff, clean.size()) << "attack was a no-op";
  EXPECT_GE(first_diff, text.PointerToRawData);
  EXPECT_LT(last_diff, text.PointerToRawData + text.SizeOfRawData);
}

TEST_F(AttacksTest, OpcodeReplaceInsertsSubEcx) {
  const Bytes& clean = env_->golden().file("hal.dll");
  const Bytes infected = OpcodeReplaceAttack::infect_file(clean);
  // First differing byte: 0x49 became 0x83 0xE9 0x01.
  std::size_t i = 0;
  while (clean[i] == infected[i]) {
    ++i;
  }
  EXPECT_EQ(clean[i], 0x49);
  EXPECT_EQ(infected[i], 0x83);
  EXPECT_EQ(infected[i + 1], 0xE9);
  EXPECT_EQ(infected[i + 2], 0x01);
  // The remainder shifted by two: infected[i+3] == clean[i+1].
  EXPECT_EQ(infected[i + 3], clean[i + 1]);
}

TEST_F(AttacksTest, OpcodeReplaceResultStillLoads) {
  const auto result =
      OpcodeReplaceAttack{}.apply(*env_, victim(), "hal.dll");
  EXPECT_TRUE(result.infects_disk_file);
  EXPECT_NE(env_->loader(victim()).find("hal.dll"), nullptr);
  // Disk copy now differs from the other VMs' disks.
  EXPECT_NE(env_->disk_file(victim(), "hal.dll"),
            env_->disk_file(env_->guests()[1], "hal.dll"));
}

// ---- E2: inline hooking ------------------------------------------------------------
TEST_F(AttacksTest, InlineHookPlacesJmpAtEntry) {
  GuestMemoryWriter writer(*env_, victim());
  std::uint32_t base = 0;
  const Bytes before = writer.read_module_image("hal.dll", &base);
  const pe::ParsedImage parsed{ByteView(before)};
  const std::uint32_t entry_rva =
      parsed.optional_header().AddressOfEntryPoint;

  InlineHookAttack{}.apply(*env_, victim(), "hal.dll");
  const Bytes after = writer.read_module_image("hal.dll");

  EXPECT_EQ(after[entry_rva], 0xE9);  // jmp rel32

  // Jump target must land inside .text, in a former cave.
  const auto rel = static_cast<std::int32_t>(load_le32(after, entry_rva + 1));
  const std::uint32_t target =
      static_cast<std::uint32_t>(static_cast<std::int64_t>(entry_rva) + 5 + rel);
  const auto* text = parsed.find_section(".text");
  ASSERT_NE(text, nullptr);
  EXPECT_GE(target, text->VirtualAddress);
  EXPECT_LT(target, text->VirtualAddress + text->VirtualSize);
  // The cave there used to be zeros.
  EXPECT_EQ(before[target], 0x00);
  EXPECT_NE(after[target], 0x00);
}

TEST_F(AttacksTest, InlineHookChangesOnlyText) {
  GuestMemoryWriter writer(*env_, victim());
  const Bytes before = writer.read_module_image("hal.dll");
  InlineHookAttack{}.apply(*env_, victim(), "hal.dll");
  const Bytes after = writer.read_module_image("hal.dll");

  const pe::ParsedImage parsed{ByteView(before)};
  const auto* text = parsed.find_section(".text");
  ASSERT_NE(text, nullptr);
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) {
      EXPECT_GE(i, text->VirtualAddress);
      EXPECT_LT(i, text->VirtualAddress + text->VirtualSize);
    }
  }
}

TEST_F(AttacksTest, InlineHookPayloadReplaysDisplacedBytes) {
  GuestMemoryWriter writer(*env_, victim());
  std::uint32_t base = 0;
  const Bytes before = writer.read_module_image("hal.dll", &base);
  const pe::ParsedImage parsed{ByteView(before)};
  const std::uint32_t entry_rva =
      parsed.optional_header().AddressOfEntryPoint;
  const auto covered = x86::cover_instructions(before, entry_rva, 5);
  ASSERT_TRUE(covered.has_value());

  InlineHookAttack{}.apply(*env_, victim(), "hal.dll");
  const Bytes after = writer.read_module_image("hal.dll");

  // Find the payload via the hook target, skip the 4-byte malicious stub
  // (xor eax,eax; inc eax; inc eax), then the displaced originals follow.
  const auto rel = static_cast<std::int32_t>(load_le32(after, entry_rva + 1));
  const auto target = static_cast<std::uint32_t>(
      static_cast<std::int64_t>(entry_rva) + 5 + rel);
  const std::size_t stub_len = 4;
  for (std::uint32_t i = 0; i < *covered; ++i) {
    EXPECT_EQ(after[target + stub_len + i], before[entry_rva + i])
        << "displaced byte " << i;
  }
}

// ---- E3: stub patch ------------------------------------------------------------------
TEST_F(AttacksTest, StubPatchChangesExactlyThreeBytes) {
  const Bytes& clean = env_->golden().file("dummy.sys");
  const Bytes infected = StubPatchAttack::infect_file(clean);
  ASSERT_EQ(infected.size(), clean.size());

  std::vector<std::size_t> diffs;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != infected[i]) {
      diffs.push_back(i);
    }
  }
  ASSERT_EQ(diffs.size(), 3u);
  EXPECT_EQ(diffs[2], diffs[0] + 2);  // contiguous
  EXPECT_EQ(infected[diffs[0]], 'C');
  EXPECT_EQ(infected[diffs[1]], 'H');
  EXPECT_EQ(infected[diffs[2]], 'K');
  // All inside the DOS header+stub region.
  const pe::DosHeader dos = pe::DosHeader::parse(clean);
  EXPECT_LT(diffs[2], dos.e_lfanew);
}

TEST_F(AttacksTest, StubPatchKeepsMessageReadable) {
  const Bytes infected =
      StubPatchAttack::infect_file(env_->golden().file("dummy.sys"));
  const std::string text(infected.begin(), infected.begin() + 0x100);
  EXPECT_NE(text.find("cannot be run in CHK mode"), std::string::npos);
}

// ---- E4: DLL import injection ----------------------------------------------------------
TEST_F(AttacksTest, DllInjectAddsSectionAndImport) {
  const Bytes& clean = env_->golden().file("dummy.sys");
  const Bytes infected = DllImportInjectAttack::infect_file(
      clean, "inject.dll", "callMessageBox");

  const Bytes mapped = pe::map_image(infected);
  const pe::ParsedImage parsed{ByteView(mapped)};
  const pe::ParsedImage clean_parsed{ByteView(pe::map_image(clean))};

  EXPECT_EQ(parsed.file_header().NumberOfSections,
            clean_parsed.file_header().NumberOfSections + 1);
  EXPECT_NE(parsed.find_section(".inj"), nullptr);
  EXPECT_GT(parsed.optional_header().SizeOfImage,
            clean_parsed.optional_header().SizeOfImage);
  EXPECT_NE(parsed.file_header().TimeDateStamp,
            clean_parsed.file_header().TimeDateStamp);

  // The import walk must now include the injected DLL *and* the original.
  const auto dlls = pe::parse_import_directory(
      mapped,
      parsed.optional_header().DataDirectories[pe::kDirImport].VirtualAddress);
  ASSERT_EQ(dlls.size(), 2u);
  EXPECT_EQ(dlls[0].dll_name, "hal.dll");  // original, original thunks
  EXPECT_EQ(dlls[1].dll_name, "inject.dll");
  EXPECT_EQ(dlls[1].function_names,
            std::vector<std::string>{"callMessageBox"});
}

TEST_F(AttacksTest, DllInjectGrowsTextVirtualSize) {
  const Bytes& clean = env_->golden().file("dummy.sys");
  const Bytes infected = DllImportInjectAttack::infect_file(
      clean, "inject.dll", "callMessageBox");
  const pe::ParsedImage a{ByteView(pe::map_image(clean))};
  const pe::ParsedImage b{ByteView(pe::map_image(infected))};
  EXPECT_EQ(b.find_section(".text")->VirtualSize,
            a.find_section(".text")->VirtualSize + 6);  // FF 15 + addr
}

TEST_F(AttacksTest, DllInjectHasValidChecksum) {
  const Bytes infected = DllImportInjectAttack::infect_file(
      env_->golden().file("dummy.sys"), "inject.dll", "callMessageBox");
  const pe::DosHeader dos = pe::DosHeader::parse(infected);
  const std::size_t checksum_offset =
      dos.e_lfanew + pe::kNtHeadersPrefixSize + 64;
  EXPECT_EQ(load_le32(infected, checksum_offset),
            pe::compute_pe_checksum(infected, checksum_offset));
}

TEST_F(AttacksTest, DllInjectLoadsAndBindsInGuest) {
  const auto result =
      DllImportInjectAttack{}.apply(*env_, victim(), "dummy.sys");
  EXPECT_TRUE(result.infects_disk_file);
  // Both the payload and the reinfected module are loaded.
  ASSERT_NE(env_->loader(victim()).find("inject.dll"), nullptr);
  const auto* dummy = env_->loader(victim()).find("dummy.sys");
  ASSERT_NE(dummy, nullptr);

  // The injected IAT slot must be bound to inject.dll's export.
  GuestMemoryWriter writer(*env_, victim());
  const Bytes image = writer.read_module_image("dummy.sys");
  const pe::ParsedImage parsed{ByteView(image)};
  const auto dlls = pe::parse_import_directory(
      image,
      parsed.optional_header().DataDirectories[pe::kDirImport].VirtualAddress);
  const auto* inject = env_->loader(victim()).find("inject.dll");
  ASSERT_NE(inject, nullptr);
  EXPECT_EQ(load_le32(image, dlls[1].iat_rvas[0]),
            inject->exports.at("callMessageBox"));
}

// ---- extensions ------------------------------------------------------------------------
TEST_F(AttacksTest, IatHookChangesOnlyWritableIdata) {
  GuestMemoryWriter writer(*env_, victim());
  const Bytes before = writer.read_module_image("http.sys");
  IatHookAttack{}.apply(*env_, victim(), "http.sys");
  const Bytes after = writer.read_module_image("http.sys");

  const pe::ParsedImage parsed{ByteView(before)};
  const auto* idata = parsed.find_section(".idata");
  ASSERT_NE(idata, nullptr);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) {
      ++diffs;
      EXPECT_GE(i, idata->VirtualAddress);
      EXPECT_LT(i, idata->VirtualAddress + idata->VirtualSize);
    }
  }
  EXPECT_GT(diffs, 0u);
  EXPECT_LE(diffs, 4u);
}

TEST_F(AttacksTest, BytePatchHitsRequestedRva) {
  GuestMemoryWriter writer(*env_, victim());
  const Bytes before = writer.read_module_image("ntfs.sys");
  BytePatchAttack(0x1040, 0x55).apply(*env_, victim(), "ntfs.sys");
  const Bytes after = writer.read_module_image("ntfs.sys");
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i == 0x1040) {
      EXPECT_EQ(after[i], before[i] ^ 0x55);
    } else {
      EXPECT_EQ(after[i], before[i]);
    }
  }
}

TEST_F(AttacksTest, BytePatchRejectsNoOp) {
  BytePatchAttack noop(0x1000, 0x00);
  EXPECT_THROW(noop.apply(*env_, victim(), "ntfs.sys"), InvalidArgument);
}

TEST_F(AttacksTest, BytePatchRejectsOutOfImage) {
  BytePatchAttack outside(0x10000000, 0x01);
  EXPECT_THROW(outside.apply(*env_, victim(), "dummy.sys"), InvalidArgument);
}

}  // namespace
