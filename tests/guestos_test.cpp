// Unit tests for mc_guestos: kernel bootstrap, the PsLoadedModuleList
// machinery, and the PE module loader (relocation + import binding).
#include <gtest/gtest.h>

#include "cloud/catalog.hpp"
#include "cloud/golden.hpp"
#include "guestos/kernel.hpp"
#include "guestos/module_loader.hpp"
#include "guestos/winlike.hpp"
#include "pe/constants.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "pe/reloc.hpp"
#include "vmm/domain.hpp"

namespace {

using namespace mc;
using namespace mc::guestos;

GuestConfig test_config(std::uint64_t seed = 1) {
  GuestConfig cfg;
  cfg.seed = seed;
  return cfg;
}

// ---- winlike helpers -----------------------------------------------------------
TEST(Winlike, LdrEntryEncoding) {
  const Bytes entry = encode_ldr_entry(winxp_sp2_profile(), 0x11111111,
                                       0x22222222, 0xF8000000, 0xF8001000,
                                       0x8000, 0x81000100, 20, 0x81000200,
                                       14);
  ASSERT_EQ(entry.size(), kLdrEntrySize);
  EXPECT_EQ(load_le32(entry, kOffInLoadOrderLinks), 0x11111111u);
  EXPECT_EQ(load_le32(entry, kOffInLoadOrderLinks + kOffListBlink),
            0x22222222u);
  EXPECT_EQ(load_le32(entry, kOffDllBase), 0xF8000000u);
  EXPECT_EQ(load_le32(entry, kOffEntryPoint), 0xF8001000u);
  EXPECT_EQ(load_le32(entry, kOffSizeOfImage), 0x8000u);
  EXPECT_EQ(load_le16(entry, kOffBaseDllName + kOffUsLength), 14);
  EXPECT_EQ(load_le32(entry, kOffBaseDllName + kOffUsBuffer), 0x81000200u);
  EXPECT_EQ(load_le16(entry, kOffLoadCount), 1);
}

TEST(Winlike, ModuleNameComparisonIsCaseInsensitive) {
  EXPECT_TRUE(module_name_equals("hal.dll", "HAL.DLL"));
  EXPECT_TRUE(module_name_equals("Http.Sys", "http.sys"));
  EXPECT_FALSE(module_name_equals("hal.dll", "hal.dl"));
  EXPECT_FALSE(module_name_equals("hal.dll", "nal.dll"));
}

// ---- GuestKernel -----------------------------------------------------------------
TEST(GuestKernel, BootInitializesEmptyModuleList) {
  vmm::Domain dom(1, "t", 64 << 20);
  GuestKernel kernel(dom, test_config());
  EXPECT_NE(dom.cr3(), 0u);
  EXPECT_TRUE(kernel.read_module_list().empty());
}

TEST(GuestKernel, DebugBlockIsPlanted) {
  vmm::Domain dom(1, "t", 64 << 20);
  GuestKernel kernel(dom, test_config());
  // The block lives 0x40 past the list head, in the same globals page.
  const std::uint32_t dbg_va = kernel.ps_loaded_module_list_va() + 0x40;
  Bytes raw(kDebugBlockSize, 0);
  kernel.address_space().read_virtual(dbg_va, raw);
  EXPECT_EQ(load_le32(raw, kOffDbgMagic), kDebugBlockMagic);
  EXPECT_EQ(load_le32(raw, kOffDbgPsLoadedModuleList),
            kernel.ps_loaded_module_list_va());
}

TEST(GuestKernel, PoolAllocAligns) {
  vmm::Domain dom(1, "t", 64 << 20);
  GuestKernel kernel(dom, test_config());
  const std::uint32_t a = kernel.pool_alloc(3);
  const std::uint32_t b = kernel.pool_alloc(8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 3);
}

TEST(GuestKernel, PoolExhaustionThrows) {
  vmm::Domain dom(1, "t", 64 << 20);
  GuestConfig cfg = test_config();
  cfg.pool_size = 0x2000;
  GuestKernel kernel(dom, cfg);
  kernel.pool_alloc(0x1F00);
  EXPECT_THROW(kernel.pool_alloc(0x200), MemoryError);
}

TEST(GuestKernel, InsertLinksListCorrectly) {
  vmm::Domain dom(1, "t", 64 << 20);
  GuestKernel kernel(dom, test_config());
  const std::uint32_t e1 =
      kernel.insert_module_entry("first.sys", 0xF8000000, 0xF8000100, 0x1000);
  const std::uint32_t e2 =
      kernel.insert_module_entry("second.sys", 0xF8100000, 0xF8100100,
                                 0x2000);

  const auto list = kernel.read_module_list();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].entry_va, e1);
  EXPECT_EQ(list[0].base_dll_name, "first.sys");
  EXPECT_EQ(list[0].dll_base, 0xF8000000u);
  EXPECT_EQ(list[1].entry_va, e2);
  // Doubly linked invariants: head <-> e1 <-> e2 <-> head.
  const std::uint32_t head = kernel.ps_loaded_module_list_va();
  EXPECT_EQ(list[0].blink, head);
  EXPECT_EQ(list[0].flink, e2);
  EXPECT_EQ(list[1].blink, e1);
  EXPECT_EQ(list[1].flink, head);
}

TEST(GuestKernel, UnlinkMiddleEntry) {
  vmm::Domain dom(1, "t", 64 << 20);
  GuestKernel kernel(dom, test_config());
  kernel.insert_module_entry("a.sys", 0xF8000000, 0, 0x1000);
  kernel.insert_module_entry("b.sys", 0xF8100000, 0, 0x1000);
  kernel.insert_module_entry("c.sys", 0xF8200000, 0, 0x1000);

  EXPECT_TRUE(kernel.unlink_module_entry("b.sys"));
  const auto list = kernel.read_module_list();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].base_dll_name, "a.sys");
  EXPECT_EQ(list[1].base_dll_name, "c.sys");
  EXPECT_EQ(list[0].flink, list[1].entry_va);
  EXPECT_EQ(list[1].blink, list[0].entry_va);
  EXPECT_FALSE(kernel.unlink_module_entry("b.sys"));
}

TEST(GuestKernel, ModuleRegionsAreMappedAndDisjoint) {
  vmm::Domain dom(1, "t", 64 << 20);
  GuestKernel kernel(dom, test_config(77));
  const std::uint32_t b1 = kernel.map_module_region(0x8000);
  const std::uint32_t b2 = kernel.map_module_region(0x8000);
  EXPECT_EQ(b1 % vmm::kFrameSize, 0u);
  EXPECT_GE(b2, b1 + 0x8000);
  // Whole regions are mapped.
  Bytes probe(0x8000, 1);
  EXPECT_NO_THROW(kernel.address_space().write_virtual(b1, probe));
  EXPECT_NO_THROW(kernel.address_space().write_virtual(b2, probe));
}

TEST(GuestKernel, DifferentSeedsDifferentBases) {
  vmm::Domain d1(1, "a", 64 << 20);
  vmm::Domain d2(2, "b", 64 << 20);
  GuestKernel k1(d1, test_config(100));
  GuestKernel k2(d2, test_config(200));
  EXPECT_NE(k1.map_module_region(0x4000), k2.map_module_region(0x4000));
}

// ---- ModuleLoader ------------------------------------------------------------------
class ModuleLoaderTest : public ::testing::Test {
 protected:
  ModuleLoaderTest()
      : golden_(cloud::default_catalog()),
        domain_(1, "t", 64 << 20),
        kernel_(domain_, test_config(5)),
        loader_(kernel_) {}

  cloud::GoldenImages golden_;
  vmm::Domain domain_;
  GuestKernel kernel_;
  ModuleLoader loader_;
};

TEST_F(ModuleLoaderTest, LoadRegistersModule) {
  const LoadedModule& m =
      loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));
  EXPECT_GE(m.base, 0xF8000000u);
  EXPECT_GT(m.size_of_image, 0u);
  EXPECT_FALSE(m.exports.empty());

  const auto list = kernel_.read_module_list();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].base_dll_name, "ntoskrnl.exe");
  EXPECT_EQ(list[0].dll_base, m.base);
  EXPECT_EQ(list[0].size_of_image, m.size_of_image);
  EXPECT_EQ(list[0].entry_point, m.entry_point);
}

TEST_F(ModuleLoaderTest, LoadedImageHasRelocationsApplied) {
  const LoadedModule& m =
      loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));

  // Read the image back from guest memory and compare a relocated word
  // against the expectation: file value + (base - preferred).
  Bytes in_guest(m.size_of_image, 0);
  kernel_.address_space().read_virtual(m.base, in_guest);

  const Bytes file_mapped = pe::map_image(golden_.file("ntoskrnl.exe"));
  const pe::ParsedImage parsed{ByteView(file_mapped)};
  const auto& reloc_dir =
      parsed.optional_header().DataDirectories[pe::kDirBaseReloc];
  ASSERT_NE(reloc_dir.VirtualAddress, 0u);
  const auto fixups = pe::parse_base_relocations(
      slice(file_mapped, reloc_dir.VirtualAddress, reloc_dir.Size));
  ASSERT_FALSE(fixups.empty());

  const std::uint32_t delta = m.base - parsed.optional_header().ImageBase;
  for (const std::uint32_t rva : fixups) {
    EXPECT_EQ(load_le32(in_guest, rva), load_le32(file_mapped, rva) + delta)
        << "fixup at rva " << rva;
  }
}

TEST_F(ModuleLoaderTest, ImportBindingWritesProviderAddresses) {
  loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));
  const LoadedModule& hal = loader_.load("hal.dll", golden_.file("hal.dll"));
  const LoadedModule* nt = loader_.find("ntoskrnl.exe");
  ASSERT_NE(nt, nullptr);

  Bytes image(hal.size_of_image, 0);
  kernel_.address_space().read_virtual(hal.base, image);
  const pe::ParsedImage parsed{ByteView(image)};
  const auto& import_dir =
      parsed.optional_header().DataDirectories[pe::kDirImport];
  ASSERT_NE(import_dir.VirtualAddress, 0u);
  const auto dlls =
      pe::parse_import_directory(image, import_dir.VirtualAddress);
  ASSERT_EQ(dlls.size(), 1u);
  for (std::size_t f = 0; f < dlls[0].function_names.size(); ++f) {
    const std::uint32_t bound = load_le32(image, dlls[0].iat_rvas[f]);
    EXPECT_EQ(bound, nt->exports.at(dlls[0].function_names[f]));
  }
}

TEST_F(ModuleLoaderTest, UnresolvedImportThrows) {
  // hal.dll imports from ntoskrnl.exe, which is not loaded.
  EXPECT_THROW(loader_.load("hal.dll", golden_.file("hal.dll")),
               NotFoundError);
}

TEST_F(ModuleLoaderTest, DoubleLoadRejected) {
  loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));
  EXPECT_THROW(loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe")),
               InvalidArgument);
}

TEST_F(ModuleLoaderTest, UnloadRemovesFromListAndRegistry) {
  loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));
  loader_.load("hal.dll", golden_.file("hal.dll"));
  loader_.unload("hal.dll");
  EXPECT_EQ(loader_.find("hal.dll"), nullptr);
  EXPECT_EQ(kernel_.read_module_list().size(), 1u);
  EXPECT_THROW(loader_.unload("hal.dll"), NotFoundError);
}

TEST_F(ModuleLoaderTest, ReloadGetsNewBase) {
  loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));
  const std::uint32_t base1 =
      loader_.load("hal.dll", golden_.file("hal.dll")).base;
  loader_.unload("hal.dll");
  const std::uint32_t base2 =
      loader_.load("hal.dll", golden_.file("hal.dll")).base;
  EXPECT_NE(base1, base2);
}

TEST_F(ModuleLoaderTest, FindIsCaseInsensitive) {
  loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));
  EXPECT_NE(loader_.find("NTOSKRNL.EXE"), nullptr);
  EXPECT_EQ(loader_.find("nothere.sys"), nullptr);
}

TEST_F(ModuleLoaderTest, EntryPointIsInsideImage) {
  const LoadedModule& m =
      loader_.load("ntoskrnl.exe", golden_.file("ntoskrnl.exe"));
  EXPECT_GT(m.entry_point, m.base);
  EXPECT_LT(m.entry_point, m.base + m.size_of_image);
}

}  // namespace
