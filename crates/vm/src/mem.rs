//! Paged virtual memory with RWX permissions.
//!
//! Memory is organized in 4 KiB pages. Every access is permission-checked
//! and an invalid access produces a [`Fault`] describing the address and
//! access kind — the raw material of both crash *and* crash-resistance:
//! the OS personalities decide whether a fault becomes a SIGSEGV, an
//! `-EFAULT` return, or a SEH dispatch.
//!
//! Mapping a page records only its protection. The page's bytes are
//! allocated on its first store; until then it reads as zeros. Most of
//! an emulated thread's 1 MiB stack is never written, so a process
//! costs memory in proportion to what it touches, not what it maps.

use std::collections::HashMap;

/// Page size in bytes (4 KiB, like the systems the paper targets).
pub const PAGE_SIZE: u64 = 4096;

/// Page protection bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Prot {
    /// No access (guard page).
    pub const NONE: Prot = Prot {
        r: false,
        w: false,
        x: false,
    };
    /// Read-only.
    pub const R: Prot = Prot {
        r: true,
        w: false,
        x: false,
    };
    /// Read-write.
    pub const RW: Prot = Prot {
        r: true,
        w: true,
        x: false,
    };
    /// Read-execute.
    pub const RX: Prot = Prot {
        r: true,
        w: false,
        x: true,
    };
    /// Read-write-execute (tests only; targets are W^X).
    pub const RWX: Prot = Prot {
        r: true,
        w: true,
        x: true,
    };

    /// Whether the protection admits the given access kind.
    #[inline]
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.r,
            Access::Write => self.w,
            Access::Exec => self.x,
        }
    }
}

impl std::fmt::Display for Prot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.r { 'r' } else { '-' },
            if self.w { 'w' } else { '-' },
            if self.x { 'x' } else { '-' }
        )
    }
}

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

impl std::fmt::Display for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Access::Read => "read",
            Access::Write => "write",
            Access::Exec => "exec",
        })
    }
}

/// An access violation: the address and the attempted access.
///
/// `mapped` distinguishes the two failure modes §VII-C of the paper keys
/// on: a permission fault on *mapped* memory (possibly intentional, e.g.
/// guard regions used for optimization) versus a fault on *unmapped*
/// memory (almost always a bug or a probing attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Faulting virtual address.
    pub addr: u64,
    /// Attempted access kind.
    pub access: Access,
    /// Whether a page is mapped at the address (permission fault) or not.
    pub mapped: bool,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fault at {:#x} ({})",
            self.access,
            self.addr,
            if self.mapped {
                "protection"
            } else {
                "unmapped"
            }
        )
    }
}

impl std::error::Error for Fault {}

/// What every mapped, never-written page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

struct Page {
    prot: Prot,
    /// The page's bytes; `None` until the first store.
    data: Option<Box<[u8; PAGE_SIZE as usize]>>,
}

impl Page {
    fn bytes(&self) -> &[u8; PAGE_SIZE as usize] {
        self.data.as_deref().unwrap_or(&ZERO_PAGE)
    }

    fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE as usize] {
        self.data
            .get_or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }
}

/// A 64-bit paged address space.
pub struct Memory {
    pages: HashMap<u64, Page>,
    generation: u64,
    writes: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.pages.len())
            .finish()
    }
}

impl Memory {
    /// An empty address space.
    pub fn new() -> Memory {
        Memory {
            pages: HashMap::new(),
            generation: 0,
            writes: 0,
        }
    }

    /// A counter bumped on every operation that could change executable
    /// bytes or mappings (map/unmap/protect and permission-bypassing
    /// writes). Instruction caches key their validity on it.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A counter bumped on every store attempt, checked ([`Memory::write`])
    /// or permission-bypassing ([`Memory::poke`]). Unlike the generation
    /// it leaves instruction caches valid; the scheduler uses it to prove
    /// that a stretch of execution left memory untouched.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Map `[addr, addr+len)` with protection `prot`, zero-filled.
    /// Overlapping existing pages are re-protected, contents preserved.
    pub fn map(&mut self, addr: u64, len: u64, prot: Prot) {
        self.generation += 1;
        let first = addr / PAGE_SIZE;
        let last = (addr + len.max(1) - 1) / PAGE_SIZE;
        for pn in first..=last {
            self.pages
                .entry(pn)
                .or_insert(Page { prot, data: None })
                .prot = prot;
        }
    }

    /// Unmap all pages intersecting `[addr, addr+len)`.
    pub fn unmap(&mut self, addr: u64, len: u64) {
        self.generation += 1;
        let first = addr / PAGE_SIZE;
        let last = (addr + len.max(1) - 1) / PAGE_SIZE;
        for pn in first..=last {
            self.pages.remove(&pn);
        }
    }

    /// Change protections on already-mapped pages. Unmapped pages in the
    /// range are ignored.
    pub fn protect(&mut self, addr: u64, len: u64, prot: Prot) {
        self.generation += 1;
        let first = addr / PAGE_SIZE;
        let last = (addr + len.max(1) - 1) / PAGE_SIZE;
        for pn in first..=last {
            if let Some(p) = self.pages.get_mut(&pn) {
                p.prot = prot;
            }
        }
    }

    /// Whether any page is mapped at `addr`.
    #[inline]
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr / PAGE_SIZE))
    }

    /// The protection of the page at `addr`, if mapped.
    pub fn prot_at(&self, addr: u64) -> Option<Prot> {
        self.pages.get(&(addr / PAGE_SIZE)).map(|p| p.prot)
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterate over mapped pages as `(base address, protection)`.
    pub fn pages(&self) -> impl Iterator<Item = (u64, Prot)> + '_ {
        self.pages.iter().map(|(&pn, p)| (pn * PAGE_SIZE, p.prot))
    }

    /// Verify that `[addr, addr+len)` is mapped with permission for
    /// `access` — the `access_ok`/`copy_from_user` style check the Linux
    /// personality uses to return `-EFAULT` instead of faulting.
    ///
    /// # Errors
    ///
    /// Returns the first [`Fault`] in the range.
    pub fn check(&self, addr: u64, len: u64, access: Access) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for pn in first..=last {
            match self.pages.get(&pn) {
                None => {
                    return Err(Fault {
                        addr: (pn * PAGE_SIZE).max(addr),
                        access,
                        mapped: false,
                    })
                }
                Some(p) if !p.prot.allows(access) => {
                    return Err(Fault {
                        addr: (pn * PAGE_SIZE).max(addr),
                        access,
                        mapped: true,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Read bytes with permission checking.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] at the first inaccessible byte; `buf` contents
    /// are unspecified on error.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        self.access(addr, buf.len() as u64, Access::Read, |page, off, i, n| {
            buf[i..i + n].copy_from_slice(&page.bytes()[off..off + n]);
        })
    }

    /// Write bytes with permission checking.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] at the first inaccessible byte. Writes are not
    /// transactional: bytes before the fault may have been written.
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), Fault> {
        self.writes += 1;
        self.access_mut(addr, buf.len() as u64, Access::Write, |page, off, i, n| {
            page.bytes_mut()[off..off + n].copy_from_slice(&buf[i..i + n]);
        })
    }

    /// Fetch instruction bytes (exec permission); reads up to `buf.len()`
    /// bytes, returning how many were readable. Zero readable bytes at
    /// `addr` is a fault.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the first byte is not executable.
    pub fn fetch(&self, addr: u64, buf: &mut [u8]) -> Result<usize, Fault> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let pn = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            match self.pages.get(&pn) {
                Some(p) if p.prot.allows(Access::Exec) => {
                    let n = (buf.len() - done).min(PAGE_SIZE as usize - off);
                    buf[done..done + n].copy_from_slice(&p.bytes()[off..off + n]);
                    done += n;
                }
                Some(_) if done > 0 => break,
                None if done > 0 => break,
                Some(_) => {
                    return Err(Fault {
                        addr: a,
                        access: Access::Exec,
                        mapped: true,
                    })
                }
                None => {
                    return Err(Fault {
                        addr: a,
                        access: Access::Exec,
                        mapped: false,
                    })
                }
            }
        }
        Ok(done)
    }

    /// Write bytes ignoring permissions (loader / attacker R/W primitive).
    /// Pages must be mapped.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if a page in the range is unmapped.
    pub fn poke(&mut self, addr: u64, buf: &[u8]) -> Result<(), Fault> {
        self.generation += 1;
        self.writes += 1;
        self.access_mut(addr, buf.len() as u64, Access::Write, |page, off, i, n| {
            page.bytes_mut()[off..off + n].copy_from_slice(&buf[i..i + n]);
        })
        .or_else(|f| {
            if f.mapped {
                // Permission fault: bypass (debugger-style write).
                self.poke_force(addr, buf)
            } else {
                Err(f)
            }
        })
    }

    fn poke_force(&mut self, addr: u64, buf: &[u8]) -> Result<(), Fault> {
        let mut i = 0usize;
        while i < buf.len() {
            let a = addr + i as u64;
            let pn = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let page = self.pages.get_mut(&pn).ok_or(Fault {
                addr: a,
                access: Access::Write,
                mapped: false,
            })?;
            let n = (buf.len() - i).min(PAGE_SIZE as usize - off);
            page.bytes_mut()[off..off + n].copy_from_slice(&buf[i..i + n]);
            i += n;
        }
        Ok(())
    }

    /// Read bytes ignoring permissions (debugger / attacker read).
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if a page in the range is unmapped.
    pub fn peek(&self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        let mut i = 0usize;
        while i < buf.len() {
            let a = addr + i as u64;
            let pn = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let page = self.pages.get(&pn).ok_or(Fault {
                addr: a,
                access: Access::Read,
                mapped: false,
            })?;
            let n = (buf.len() - i).min(PAGE_SIZE as usize - off);
            buf[i..i + n].copy_from_slice(&page.bytes()[off..off + n]);
            i += n;
        }
        Ok(())
    }

    /// Read a little-endian u64.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Fault`].
    pub fn read_u64(&self, addr: u64) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian u64.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Fault`].
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), Fault> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Read a value of `width` bytes (1, 4 or 8), zero-extended.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Fault`].
    pub fn read_width(&self, addr: u64, width: usize) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b[..width])?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write the low `width` bytes of `v`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Fault`].
    pub fn write_width(&mut self, addr: u64, v: u64, width: usize) -> Result<(), Fault> {
        self.write(addr, &v.to_le_bytes()[..width])
    }

    fn access(
        &self,
        addr: u64,
        len: u64,
        access: Access,
        mut f: impl FnMut(&Page, usize, usize, usize),
    ) -> Result<(), Fault> {
        let mut i = 0usize;
        while (i as u64) < len {
            let a = addr + i as u64;
            let pn = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            match self.pages.get(&pn) {
                None => {
                    return Err(Fault {
                        addr: a,
                        access,
                        mapped: false,
                    })
                }
                Some(p) if !p.prot.allows(access) => {
                    return Err(Fault {
                        addr: a,
                        access,
                        mapped: true,
                    })
                }
                Some(p) => {
                    let n = (len as usize - i).min(PAGE_SIZE as usize - off);
                    f(p, off, i, n);
                    i += n;
                }
            }
        }
        Ok(())
    }

    fn access_mut(
        &mut self,
        addr: u64,
        len: u64,
        access: Access,
        mut f: impl FnMut(&mut Page, usize, usize, usize),
    ) -> Result<(), Fault> {
        let mut i = 0usize;
        while (i as u64) < len {
            let a = addr + i as u64;
            let pn = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            match self.pages.get_mut(&pn) {
                None => {
                    return Err(Fault {
                        addr: a,
                        access,
                        mapped: false,
                    })
                }
                Some(p) if !p.prot.allows(access) => {
                    return Err(Fault {
                        addr: a,
                        access,
                        mapped: true,
                    })
                }
                Some(p) => {
                    let n = (len as usize - i).min(PAGE_SIZE as usize - off);
                    f(p, off, i, n);
                    i += n;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write() {
        let mut m = Memory::new();
        m.map(0x1000, 0x2000, Prot::RW);
        m.write_u64(0x1ff8, 0xdead_beef).unwrap();
        assert_eq!(m.read_u64(0x1ff8).unwrap(), 0xdead_beef);
        // Cross-page write.
        m.write(0x1fff, &[1, 2, 3]).unwrap();
        let mut b = [0u8; 3];
        m.read(0x1fff, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3]);
    }

    #[test]
    fn unmapped_faults() {
        let m = Memory::new();
        let err = m.read_u64(0x5000).unwrap_err();
        assert_eq!(
            err,
            Fault {
                addr: 0x5000,
                access: Access::Read,
                mapped: false
            }
        );
    }

    #[test]
    fn permission_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Prot::R);
        assert!(m.read_u64(0x1000).is_ok());
        let err = m.write_u64(0x1000, 1).unwrap_err();
        assert!(err.mapped);
        assert_eq!(err.access, Access::Write);
    }

    #[test]
    fn exec_fetch_respects_x() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Prot::RW);
        let mut buf = [0u8; 15];
        let err = m.fetch(0x1000, &mut buf).unwrap_err();
        assert_eq!(err.access, Access::Exec);
        assert!(err.mapped);
        m.protect(0x1000, 0x1000, Prot::RX);
        assert_eq!(m.fetch(0x1000, &mut buf).unwrap(), 15);
    }

    #[test]
    fn fetch_truncates_at_boundary() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Prot::RX);
        let mut buf = [0u8; 15];
        // 10 bytes before the end of the mapped page.
        let n = m.fetch(0x1ff6, &mut buf).unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn check_range() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Prot::RW);
        assert!(m.check(0x1000, 0x1000, Access::Read).is_ok());
        assert!(m.check(0x1800, 0x1000, Access::Read).is_err()); // crosses into unmapped
        assert!(m.check(0x1000, 0, Access::Write).is_ok()); // empty range
    }

    #[test]
    fn unmap_removes_pages() {
        let mut m = Memory::new();
        m.map(0x1000, 0x3000, Prot::RW);
        m.unmap(0x2000, 0x1000);
        assert!(m.is_mapped(0x1000));
        assert!(!m.is_mapped(0x2000));
        assert!(m.is_mapped(0x3000));
    }

    #[test]
    fn peek_poke_bypass_permissions() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Prot::R);
        m.poke(0x1000, &[0x41]).unwrap();
        let mut b = [0u8];
        m.peek(0x1000, &mut b).unwrap();
        assert_eq!(b[0], 0x41);
        // But unmapped still faults.
        assert!(m.poke(0x9000, &[0]).is_err());
        assert!(m.peek(0x9000, &mut b).is_err());
    }

    #[test]
    fn writes_count_stores_but_leave_the_generation_alone() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Prot::R);
        let (gen, writes) = (m.generation(), m.writes());
        assert!(m.write_u64(0x1000, 1).is_err(), "read-only page");
        assert_eq!(m.writes(), writes + 1, "a faulting store still counts");
        m.protect(0x1000, 0x1000, Prot::RW);
        let gen = gen + 1;
        m.write_u64(0x1000, 1).unwrap();
        assert_eq!((m.generation(), m.writes()), (gen, writes + 2));
        m.poke(0x1000, &[2]).unwrap();
        assert_eq!((m.generation(), m.writes()), (gen + 1, writes + 3));
        let mut b = [0u8];
        m.peek(0x1000, &mut b).unwrap();
        m.read_u64(0x1000).unwrap();
        assert_eq!(m.writes(), writes + 3, "reads never count");
    }

    #[test]
    fn remap_preserves_contents() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Prot::RW);
        m.write_u64(0x1000, 42).unwrap();
        m.map(0x1000, 0x1000, Prot::R); // re-protect via map
        assert_eq!(m.read_u64(0x1000).unwrap(), 42);
        assert!(m.write_u64(0x1000, 1).is_err());
    }

    /// Pages whose bytes have been allocated (written at least once).
    fn allocated(m: &Memory) -> usize {
        m.pages.values().filter(|p| p.data.is_some()).count()
    }

    #[test]
    fn unwritten_pages_read_as_zeros() {
        let mut m = Memory::new();
        m.map(0x1000, 0x3000, Prot::RWX);
        let mut b = [0xAAu8; 0x3000];
        m.read(0x1000, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0), "read of an unwritten page");
        b.fill(0xAA);
        m.peek(0x1000, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0), "peek of an unwritten page");
        let mut code = [0xAAu8; 15];
        assert_eq!(m.fetch(0x1ff8, &mut code).unwrap(), 15);
        assert_eq!(code, [0; 15], "fetch across two unwritten pages");
        assert_eq!(allocated(&m), 0, "reads never allocate");

        // A store into the middle page leaves its neighbours zero, also
        // when one access spans written and unwritten pages.
        m.write(0x2ffe, &[7, 7]).unwrap();
        let mut span = [0xAAu8; 6];
        m.read(0x2ffc, &mut span).unwrap();
        assert_eq!(span, [0, 0, 7, 7, 0, 0]);
        m.read(0x1000, &mut b).unwrap();
        assert!(b[..0x1000].iter().all(|&x| x == 0));
        assert!(b[0x2000..].iter().all(|&x| x == 0));
    }

    #[test]
    fn a_store_allocates_only_its_own_page() {
        let mut m = Memory::new();
        m.map(0x10_0000, 0x10_0000, Prot::RW); // a 1 MiB stack
        assert_eq!((m.page_count(), allocated(&m)), (256, 0));
        m.write_u64(0x1f_fff8, 1).unwrap();
        assert_eq!(allocated(&m), 1);
        m.write_u64(0x1f_fff0, 2).unwrap();
        assert_eq!(allocated(&m), 1, "a second store to the same page");
        m.write(0x1f_effe, &[1, 2, 3]).unwrap();
        assert_eq!(allocated(&m), 2, "a store spanning into the next page down");

        // A faulting store allocates nothing; a permission-bypassing
        // poke allocates the page it lands on.
        m.map(0x30_0000, 0x1000, Prot::R);
        assert!(m.write_u64(0x30_0000, 1).is_err());
        assert_eq!(allocated(&m), 2);
        m.poke(0x30_0000, &[9]).unwrap();
        assert_eq!(allocated(&m), 3);
        assert_eq!(m.read_width(0x30_0000, 1).unwrap(), 9);
    }

    #[test]
    fn lazy_pages_keep_mapping_and_counter_semantics() {
        let mut m = Memory::new();
        let gen = m.generation();
        m.map(0x1000, 0x4000, Prot::RW);
        assert_eq!((m.page_count(), m.generation()), (4, gen + 1));
        m.protect(0x1000, 0x2000, Prot::R);
        assert_eq!(m.generation(), gen + 2);
        assert_eq!(m.prot_at(0x2000), Some(Prot::R));
        assert_eq!(m.prot_at(0x3000), Some(Prot::RW));
        assert!(m.write_u64(0x1000, 1).is_err(), "protect applies unwritten");
        m.write_u64(0x3000, 5).unwrap();
        assert_eq!((m.writes(), m.generation()), (2, gen + 2));
        m.unmap(0x3000, 0x1000);
        assert_eq!((m.page_count(), m.generation()), (3, gen + 3));
        assert!(!m.is_mapped(0x3000));
        assert_eq!(
            m.read_u64(0x3000).unwrap_err(),
            Fault {
                addr: 0x3000,
                access: Access::Read,
                mapped: false,
            }
        );
        // A page mapped again after an unmap starts zeroed.
        m.map(0x3000, 0x1000, Prot::RW);
        assert_eq!(m.read_u64(0x3000).unwrap(), 0);
        assert_eq!((m.page_count(), m.generation()), (4, gen + 4));
        assert_eq!(allocated(&m), 0);
    }

    #[test]
    fn fault_display() {
        let f = Fault {
            addr: 0x1234,
            access: Access::Write,
            mapped: false,
        };
        assert_eq!(f.to_string(), "write fault at 0x1234 (unmapped)");
    }
}
