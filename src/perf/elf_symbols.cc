#include "src/perf/elf_symbols.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <elf.h>
#include <unistd.h>

namespace ensemble {

namespace {

// Lowest PT_LOAD virtual address of the executable (link-time base).
uint64_t MinLoadVaddr(const std::vector<char>& image) {
  const auto* ehdr = reinterpret_cast<const Elf64_Ehdr*>(image.data());
  uint64_t min_vaddr = UINT64_MAX;
  for (uint16_t i = 0; i < ehdr->e_phnum; i++) {
    const auto* phdr = reinterpret_cast<const Elf64_Phdr*>(
        image.data() + ehdr->e_phoff + static_cast<size_t>(i) * ehdr->e_phentsize);
    if (phdr->p_type == PT_LOAD) {
      min_vaddr = std::min(min_vaddr, static_cast<uint64_t>(phdr->p_vaddr));
    }
  }
  return min_vaddr == UINT64_MAX ? 0 : min_vaddr;
}

// Runtime base address of our own executable mapping.
uint64_t RuntimeBase() {
  std::ifstream maps("/proc/self/maps");
  std::string exe_path;
  {
    char buf[4096];
    ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) {
      return 0;
    }
    buf[n] = '\0';
    exe_path = buf;
  }
  std::string line;
  uint64_t base = UINT64_MAX;
  while (std::getline(maps, line)) {
    if (line.find(exe_path) == std::string::npos) {
      continue;
    }
    uint64_t start = 0;
    if (std::sscanf(line.c_str(), "%lx-", &start) == 1) {
      base = std::min(base, start);
    }
  }
  return base == UINT64_MAX ? 0 : base;
}

}  // namespace

ElfSymbolTable::ElfSymbolTable() {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  if (!exe) {
    return;
  }
  std::vector<char> image((std::istreambuf_iterator<char>(exe)),
                          std::istreambuf_iterator<char>());
  if (image.size() < sizeof(Elf64_Ehdr) || std::memcmp(image.data(), ELFMAG, SELFMAG) != 0) {
    return;
  }
  const auto* ehdr = reinterpret_cast<const Elf64_Ehdr*>(image.data());
  if (ehdr->e_ident[EI_CLASS] != ELFCLASS64) {
    return;
  }

  uint64_t bias = 0;
  if (ehdr->e_type == ET_DYN) {
    bias = RuntimeBase() - MinLoadVaddr(image);
  }

  // Locate .symtab and its string table.
  const char* shstr =
      image.data() +
      reinterpret_cast<const Elf64_Shdr*>(image.data() + ehdr->e_shoff +
                                          static_cast<size_t>(ehdr->e_shstrndx) *
                                              ehdr->e_shentsize)
          ->sh_offset;
  for (uint16_t i = 0; i < ehdr->e_shnum; i++) {
    const auto* shdr = reinterpret_cast<const Elf64_Shdr*>(
        image.data() + ehdr->e_shoff + static_cast<size_t>(i) * ehdr->e_shentsize);
    if (shdr->sh_type != SHT_SYMTAB || std::strcmp(shstr + shdr->sh_name, ".symtab") != 0) {
      continue;
    }
    const auto* strtab_hdr = reinterpret_cast<const Elf64_Shdr*>(
        image.data() + ehdr->e_shoff + static_cast<size_t>(shdr->sh_link) * ehdr->e_shentsize);
    const char* strtab = image.data() + strtab_hdr->sh_offset;
    size_t count = shdr->sh_size / sizeof(Elf64_Sym);
    for (size_t s = 0; s < count; s++) {
      const auto* sym = reinterpret_cast<const Elf64_Sym*>(
          image.data() + shdr->sh_offset + s * sizeof(Elf64_Sym));
      if (ELF64_ST_TYPE(sym->st_info) != STT_FUNC || sym->st_size == 0) {
        continue;
      }
      SymbolInfo info;
      info.name = strtab + sym->st_name;
      info.addr = sym->st_value + bias;
      info.size = sym->st_size;
      symbols_.push_back(std::move(info));
    }
    break;
  }
  std::sort(symbols_.begin(), symbols_.end(),
            [](const SymbolInfo& a, const SymbolInfo& b) { return a.addr < b.addr; });
  loaded_ = !symbols_.empty();
}

const SymbolInfo* ElfSymbolTable::FindByAddress(const void* code_addr) const {
  uint64_t addr = reinterpret_cast<uint64_t>(code_addr);
  auto it = std::upper_bound(
      symbols_.begin(), symbols_.end(), addr,
      [](uint64_t a, const SymbolInfo& s) { return a < s.addr; });
  if (it == symbols_.begin()) {
    return nullptr;
  }
  --it;
  if (addr >= it->addr && addr < it->addr + it->size) {
    return &*it;
  }
  return nullptr;
}

const SymbolInfo* ElfSymbolTable::FindByNameSubstring(const std::string& substr) const {
  for (const SymbolInfo& s : symbols_) {
    if (s.name.find(substr) != std::string::npos) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<const SymbolInfo*> ElfSymbolTable::FindAllByNameSubstring(
    const std::string& substr) const {
  std::vector<const SymbolInfo*> out;
  for (const SymbolInfo& s : symbols_) {
    if (s.name.find(substr) != std::string::npos) {
      out.push_back(&s);
    }
  }
  return out;
}

uint64_t CodeSizeOf(const void* code_addr) {
  static const ElfSymbolTable table;
  const SymbolInfo* sym = table.FindByAddress(code_addr);
  return sym != nullptr ? sym->size : 0;
}

}  // namespace ensemble
