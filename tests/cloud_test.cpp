// Tests for the cloud environment: golden image determinism, catalog
// consistency, guest provisioning, disks, snapshots.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cloud/catalog.hpp"
#include "cloud/environment.hpp"
#include "cloud/golden.hpp"
#include "crypto/md5.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"

namespace {

using namespace mc;
using namespace mc::cloud;

// ---- catalog -----------------------------------------------------------------------
TEST(Catalog, ImportsOnlyReferenceEarlierEntriesWithMatchingExports) {
  const auto catalog = default_catalog();
  std::map<std::string, std::set<std::string>> exports_so_far;
  for (const auto& spec : catalog) {
    for (const auto& dll : spec.imports) {
      const auto it = exports_so_far.find(dll.dll_name);
      ASSERT_NE(it, exports_so_far.end())
          << spec.name << " imports from not-yet-listed " << dll.dll_name;
      for (const auto& fn : dll.function_names) {
        EXPECT_TRUE(it->second.count(fn))
            << spec.name << " imports missing export " << dll.dll_name
            << "!" << fn;
      }
    }
    exports_so_far[spec.name] = std::set<std::string>(spec.exports.begin(),
                                                      spec.exports.end());
  }
}

TEST(Catalog, LoadOrderCoversPaperModules) {
  const auto order = default_load_order();
  const std::set<std::string> names(order.begin(), order.end());
  // The modules the paper's experiments use.
  EXPECT_TRUE(names.count("hal.dll"));    // E1, E2
  EXPECT_TRUE(names.count("dummy.sys"));  // E3, E4
  EXPECT_TRUE(names.count("http.sys"));   // Figs. 7-8
  EXPECT_TRUE(names.count("ntfs.sys"));   // Rustock.B example
}

TEST(Catalog, UniqueSeedsAndNames) {
  const auto catalog = default_catalog();
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& spec : catalog) {
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    EXPECT_TRUE(seeds.insert(spec.seed).second) << spec.name;
  }
}

// ---- golden images --------------------------------------------------------------------
TEST(Golden, BuildIsDeterministic) {
  const auto catalog = default_catalog();
  const GoldenImages a(catalog);
  const GoldenImages b(catalog);
  for (const auto& spec : catalog) {
    EXPECT_EQ(crypto::Md5::hash(a.file(spec.name)),
              crypto::Md5::hash(b.file(spec.name)))
        << spec.name;
  }
}

TEST(Golden, EveryImageIsWellFormed) {
  const GoldenImages golden(default_catalog());
  for (const auto& [name, file] : golden.all()) {
    const Bytes mapped = pe::map_image(file);
    const pe::ParsedImage parsed{ByteView(mapped)};
    EXPECT_GE(parsed.sections().size(), 4u) << name;
    EXPECT_NE(parsed.find_section(".text"), nullptr) << name;
    EXPECT_NE(parsed.find_section(".reloc"), nullptr) << name;
    EXPECT_GT(parsed.optional_header().AddressOfEntryPoint, 0u) << name;
  }
}

TEST(Golden, HttpSysIsTheLargestDriver) {
  // Keeps the Fig. 7/8 workload meaningful.
  const GoldenImages golden(default_catalog());
  const std::size_t http = golden.file("http.sys").size();
  for (const auto& name : {"hal.dll", "ndis.sys", "tcpip.sys", "ntfs.sys",
                           "dummy.sys", "inject.dll"}) {
    EXPECT_GT(http, golden.file(name).size()) << name;
  }
}

TEST(Golden, UnknownFileThrows) {
  const GoldenImages golden(default_catalog());
  EXPECT_THROW(golden.file("nope.sys"), NotFoundError);
  EXPECT_FALSE(golden.has("nope.sys"));
}

// ---- environment ------------------------------------------------------------------------
TEST(Environment, ProvisionsRequestedGuests) {
  CloudConfig cfg;
  cfg.guest_count = 4;
  CloudEnvironment env(cfg);
  EXPECT_EQ(env.guests().size(), 4u);
  for (const auto id : env.guests()) {
    EXPECT_EQ(env.loader(id).loaded().size(), cfg.load_order.size());
  }
}

TEST(Environment, GuestsShareFilesButNotBases) {
  CloudConfig cfg;
  cfg.guest_count = 4;
  CloudEnvironment env(cfg);
  std::set<std::uint32_t> bases;
  for (const auto id : env.guests()) {
    const auto* m = env.loader(id).find("http.sys");
    ASSERT_NE(m, nullptr);
    bases.insert(m->base);
    EXPECT_EQ(env.disk_file(id, "http.sys"), env.golden().file("http.sys"));
  }
  EXPECT_EQ(bases.size(), 4u);  // all different
}

TEST(Environment, DifferentBaseSeedDifferentBases) {
  CloudConfig a;
  a.guest_count = 1;
  CloudConfig b;
  b.guest_count = 1;
  b.base_seed = 777;
  CloudEnvironment env_a(a);
  CloudEnvironment env_b(b);
  EXPECT_NE(env_a.loader(env_a.guests()[0]).find("hal.dll")->base,
            env_b.loader(env_b.guests()[0]).find("hal.dll")->base);
}

TEST(Environment, DiskWriteAndRead) {
  CloudConfig cfg;
  cfg.guest_count = 2;
  CloudEnvironment env(cfg);
  EXPECT_FALSE(env.disk_has(env.guests()[0], "evil.sys"));
  env.write_disk_file(env.guests()[0], "evil.sys", Bytes{1, 2});
  EXPECT_TRUE(env.disk_has(env.guests()[0], "evil.sys"));
  EXPECT_FALSE(env.disk_has(env.guests()[1], "evil.sys"));  // per-VM disks
  EXPECT_THROW(env.disk_file(env.guests()[1], "evil.sys"), NotFoundError);
}

TEST(Environment, SnapshotRevertRestoresMemoryAndDisk) {
  CloudConfig cfg;
  cfg.guest_count = 2;
  CloudEnvironment env(cfg);
  env.snapshot_all();

  const auto vm = env.guests()[0];
  const Bytes original_disk = env.disk_file(vm, "hal.dll");
  env.write_disk_file(vm, "hal.dll", Bytes{9, 9, 9});
  env.kernel(vm).address_space().write_virtual(
      env.loader(vm).find("hal.dll")->base + 0x1000, Bytes{1, 2, 3});

  env.revert(vm);
  EXPECT_EQ(env.disk_file(vm, "hal.dll"), original_disk);
  Bytes probe(3, 0);
  env.kernel(vm).address_space().read_virtual(
      env.loader(vm).find("hal.dll")->base + 0x1000, probe);
  EXPECT_NE(probe, (Bytes{1, 2, 3}));
}

TEST(Environment, RevertWithoutSnapshotThrows) {
  CloudConfig cfg;
  cfg.guest_count = 1;
  CloudEnvironment env(cfg);
  EXPECT_THROW(env.revert(env.guests()[0]), NotFoundError);
}

TEST(Environment, SetBusyGuests) {
  CloudConfig cfg;
  cfg.guest_count = 4;
  CloudEnvironment env(cfg);
  env.set_busy_guests(2);
  EXPECT_DOUBLE_EQ(env.hypervisor().total_busy_load(), 2.0);
  env.set_busy_guests(0);
  EXPECT_DOUBLE_EQ(env.hypervisor().total_busy_load(), 0.0);
  EXPECT_THROW(env.set_busy_guests(5), InvalidArgument);
}

TEST(Environment, UnknownGuestAccessorsThrow) {
  CloudConfig cfg;
  cfg.guest_count = 1;
  CloudEnvironment env(cfg);
  EXPECT_THROW(env.kernel(42), NotFoundError);
  EXPECT_THROW(env.loader(42), NotFoundError);
}

}  // namespace
