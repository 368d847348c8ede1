//! A slotted-page heap file for variable-length records.
//!
//! Tuple payloads (the serialized constraint conjunctions) live here; the
//! refinement step of the approximate query techniques fetches candidate
//! tuples through this file, so those page accesses are part of the measured
//! query cost.
//!
//! Page layout:
//!
//! ```text
//! [u16 slot_count][u16 free_off] [slot0: u16 off, u16 len] [slot1] ...
//!                                              ... data grows downward ...
//! ```
//!
//! Deleted slots keep their directory entry with `len = 0xFFFF` (tombstone)
//! so record ids remain stable.
//!
//! Every operation that touches a page is fallible: over a durable pager a
//! read can fail with an I/O error or a checksum mismatch, and the heap
//! propagates it instead of panicking. A record id the heap cannot hold (a
//! foreign page, an out-of-range slot) is refused the same way, with
//! [`ErrorKind::InvalidInput`].

use std::io::{Error, ErrorKind};

use crate::codec::{get_u16, put_u16};
use crate::pager::{PageId, PageReader, Pager};

const HDR: usize = 4;
const SLOT: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

/// Stable identifier of a record: `(page, slot)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// A heap file over a pager. Pages are owned exclusively by the heap.
#[derive(Clone, Debug)]
pub struct HeapFile {
    /// Owned pages in insertion order.
    pages: Vec<PageId>,
    /// The same pages in ascending order, for membership checks.
    sorted: Vec<PageId>,
    page_size: usize,
}

impl HeapFile {
    /// Creates an empty heap file allocating from `pager`.
    pub fn new(pager: &mut dyn Pager) -> Self {
        let _ = pager; // first page allocated lazily
        HeapFile {
            pages: Vec::new(),
            sorted: Vec::new(),
            page_size: pager.page_size(),
        }
    }

    /// Re-attaches a heap from its persisted page list (the pages must
    /// already be allocated in the pager and hold valid slotted content).
    pub fn from_pages(page_size: usize, pages: Vec<PageId>) -> Self {
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        HeapFile {
            pages,
            sorted,
            page_size,
        }
    }

    /// The page ids owned by the heap, in insertion order. This list is what
    /// the catalog persists so a reopened database can re-attach the heap
    /// without rescanning.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Largest record storable on a page of this heap.
    pub fn max_record_len(&self) -> usize {
        self.page_size - HDR - SLOT
    }

    /// Number of pages owned by the heap (the space metric).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Inserts a record and returns its id.
    ///
    /// # Panics
    /// Panics if `data.len() > max_record_len()` or `data` is empty.
    pub fn insert(&mut self, pager: &mut dyn Pager, data: &[u8]) -> std::io::Result<RecordId> {
        assert!(!data.is_empty(), "empty records are not supported");
        assert!(
            data.len() <= self.max_record_len(),
            "record of {} bytes exceeds page capacity {}",
            data.len(),
            self.max_record_len()
        );
        let mut buf = vec![0u8; self.page_size];
        // Try the last page first (append-mostly workloads).
        if let Some(&last) = self.pages.last() {
            pager.read(last, &mut buf)?;
            if let Some(slot) = try_insert(&mut buf, data, self.page_size) {
                pager.write(last, &buf)?;
                return Ok(RecordId { page: last, slot });
            }
        }
        // Fresh page.
        let id = pager.allocate()?;
        buf.fill(0);
        put_u16(&mut buf, 2, self.page_size as u16); // free_off = page end
        let slot = try_insert(&mut buf, data, self.page_size).expect("fits in a fresh page");
        pager.write(id, &buf)?;
        self.pages.push(id);
        let at = self.sorted.partition_point(|&p| p < id);
        self.sorted.insert(at, id);
        Ok(RecordId { page: id, slot })
    }

    /// Reads a record. Returns `Ok(None)` for a tombstoned slot.
    ///
    /// # Errors
    /// [`ErrorKind::InvalidInput`] if the id does not refer to a page and
    /// slot of this heap; otherwise the pager's read error.
    pub fn get(&self, pager: &dyn PageReader, id: RecordId) -> std::io::Result<Option<Vec<u8>>> {
        self.check_page(id)?;
        let mut buf = vec![0u8; self.page_size];
        pager.read(id.page, &mut buf)?;
        check_slot(id, &buf)?;
        let off = get_u16(&buf, HDR + id.slot as usize * SLOT) as usize;
        let len = get_u16(&buf, HDR + id.slot as usize * SLOT + 2);
        if len == TOMBSTONE {
            return Ok(None);
        }
        Ok(Some(buf[off..off + len as usize].to_vec()))
    }

    /// Reads many records with one page access per *distinct page*: the
    /// batched fetch used by query refinement (candidates are grouped by
    /// page before reading). Results align with `ids`; tombstoned slots
    /// yield `None`.
    ///
    /// # Errors
    /// As [`get`](Self::get), for the first offending id.
    pub fn get_many(
        &self,
        pager: &dyn PageReader,
        ids: &[RecordId],
    ) -> std::io::Result<Vec<Option<Vec<u8>>>> {
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_by_key(|&i| (ids[i].page, ids[i].slot));
        let mut out: Vec<Option<Vec<u8>>> = vec![None; ids.len()];
        let mut buf = vec![0u8; self.page_size];
        let mut loaded: Option<PageId> = None;
        for i in order {
            let id = ids[i];
            if loaded != Some(id.page) {
                self.check_page(id)?;
                pager.read(id.page, &mut buf)?;
                loaded = Some(id.page);
            }
            check_slot(id, &buf)?;
            let off = get_u16(&buf, HDR + id.slot as usize * SLOT) as usize;
            let len = get_u16(&buf, HDR + id.slot as usize * SLOT + 2);
            if len != TOMBSTONE {
                out[i] = Some(buf[off..off + len as usize].to_vec());
            }
        }
        Ok(out)
    }

    /// Tombstones a record. Returns `true` if it was live.
    ///
    /// # Errors
    /// As [`get`](Self::get); or the pager's write error.
    pub fn delete(&mut self, pager: &mut dyn Pager, id: RecordId) -> std::io::Result<bool> {
        self.check_page(id)?;
        let mut buf = vec![0u8; self.page_size];
        pager.read(id.page, &mut buf)?;
        check_slot(id, &buf)?;
        let len_off = HDR + id.slot as usize * SLOT + 2;
        if get_u16(&buf, len_off) == TOMBSTONE {
            return Ok(false);
        }
        put_u16(&mut buf, len_off, TOMBSTONE);
        pager.write(id.page, &buf)?;
        Ok(true)
    }

    /// Scans all live records in storage order.
    pub fn scan(&self, pager: &dyn PageReader) -> std::io::Result<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; self.page_size];
        for &page in &self.pages {
            pager.read(page, &mut buf)?;
            let n = get_u16(&buf, 0);
            for slot in 0..n {
                let off = get_u16(&buf, HDR + slot as usize * SLOT) as usize;
                let len = get_u16(&buf, HDR + slot as usize * SLOT + 2);
                if len != TOMBSTONE {
                    out.push((
                        RecordId { page, slot },
                        buf[off..off + len as usize].to_vec(),
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Frees every heap page back to the pager.
    pub fn destroy(self, pager: &mut dyn Pager) {
        for page in self.pages {
            pager.free(page);
        }
    }

    /// Refuses a record id whose page this heap does not own.
    fn check_page(&self, id: RecordId) -> std::io::Result<()> {
        if self.sorted.binary_search(&id.page).is_ok() {
            return Ok(());
        }
        Err(Error::new(
            ErrorKind::InvalidInput,
            format!(
                "record id names page {}, which the heap does not own",
                id.page
            ),
        ))
    }
}

/// Refuses a record id whose slot is past the directory of its page image.
fn check_slot(id: RecordId, buf: &[u8]) -> std::io::Result<()> {
    let n = get_u16(buf, 0);
    if id.slot < n {
        return Ok(());
    }
    Err(Error::new(
        ErrorKind::InvalidInput,
        format!(
            "record id names slot {} of page {}, which has {n}",
            id.slot, id.page
        ),
    ))
}

/// Tries to append `data` to the page image; returns the new slot on success.
fn try_insert(buf: &mut [u8], data: &[u8], page_size: usize) -> Option<u16> {
    let n = get_u16(buf, 0) as usize;
    let free_off = {
        let f = get_u16(buf, 2) as usize;
        if f == 0 {
            page_size
        } else {
            f
        }
    };
    let dir_end = HDR + (n + 1) * SLOT;
    if dir_end + data.len() > free_off {
        return None; // no room for slot + data
    }
    let new_off = free_off - data.len();
    buf[new_off..free_off].copy_from_slice(data);
    put_u16(buf, HDR + n * SLOT, new_off as u16);
    put_u16(buf, HDR + n * SLOT + 2, data.len() as u16);
    put_u16(buf, 0, (n + 1) as u16);
    put_u16(buf, 2, new_off as u16);
    Some(n as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    #[test]
    fn insert_and_get() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let a = heap.insert(&mut pager, b"hello").unwrap();
        let b = heap.insert(&mut pager, b"world!").unwrap();
        assert_eq!(heap.get(&pager, a).unwrap().unwrap(), b"hello");
        assert_eq!(heap.get(&pager, b).unwrap().unwrap(), b"world!");
        assert_eq!(heap.page_count(), 1);
    }

    #[test]
    fn spills_to_new_pages() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let payload = vec![7u8; 40];
        let ids: Vec<_> = (0..10)
            .map(|_| heap.insert(&mut pager, &payload).unwrap())
            .collect();
        assert!(heap.page_count() > 1, "should overflow a 128-byte page");
        for id in ids {
            assert_eq!(heap.get(&pager, id).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn delete_tombstones() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let a = heap.insert(&mut pager, b"abc").unwrap();
        let b = heap.insert(&mut pager, b"def").unwrap();
        assert!(heap.delete(&mut pager, a).unwrap());
        assert!(
            !heap.delete(&mut pager, a).unwrap(),
            "second delete is a no-op"
        );
        assert!(heap.get(&pager, a).unwrap().is_none());
        assert_eq!(heap.get(&pager, b).unwrap().unwrap(), b"def");
    }

    #[test]
    fn scan_returns_live_records_in_order() {
        let mut pager = MemPager::new(256);
        let mut heap = HeapFile::new(&mut pager);
        let ids: Vec<_> = (0..5u8)
            .map(|i| heap.insert(&mut pager, &[i; 10]).unwrap())
            .collect();
        heap.delete(&mut pager, ids[2]).unwrap();
        let all = heap.scan(&pager).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].1, vec![0u8; 10]);
        assert_eq!(all[2].1, vec![3u8; 10], "deleted record skipped");
    }

    #[test]
    fn max_record_roundtrips() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let big = vec![1u8; heap.max_record_len()];
        let id = heap.insert(&mut pager, &big).unwrap();
        assert_eq!(heap.get(&pager, id).unwrap().unwrap(), big);
    }

    #[test]
    #[should_panic]
    fn oversized_record_panics() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let _ = heap.insert(&mut pager, &vec![0u8; 1000]);
    }

    #[test]
    fn destroy_frees_pages() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        for i in 0..20u8 {
            heap.insert(&mut pager, &[i; 30]).unwrap();
        }
        let pages = heap.page_count();
        assert!(pages > 0);
        heap.destroy(&mut pager);
        assert_eq!(pager.live_pages(), 0);
    }

    #[test]
    fn get_many_batches_page_reads() {
        let mut pager = MemPager::new(256);
        let mut heap = HeapFile::new(&mut pager);
        let ids: Vec<_> = (0..30u8)
            .map(|i| heap.insert(&mut pager, &[i; 10]).unwrap())
            .collect();
        heap.delete(&mut pager, ids[7]).unwrap();
        pager.reset_stats();
        // Fetch everything in a scrambled order.
        let mut order: Vec<RecordId> = ids.clone();
        order.reverse();
        let got = heap.get_many(&pager, &order).unwrap();
        assert_eq!(got.len(), 30);
        assert_eq!(got[29], Some(vec![0u8; 10]), "alignment with input order");
        assert_eq!(got[30 - 1 - 7], None, "tombstone yields None");
        assert_eq!(
            pager.stats().reads as usize,
            heap.page_count(),
            "one read per distinct page"
        );
    }

    /// The kind of a refused call's error.
    fn kind<T>(r: std::io::Result<T>) -> ErrorKind {
        r.err().expect("the call is refused").kind()
    }

    #[test]
    fn foreign_page_is_invalid_input() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let mut other = HeapFile::new(&mut pager);
        heap.insert(&mut pager, b"mine").unwrap();
        let foreign = other.insert(&mut pager, b"theirs").unwrap();
        assert_eq!(kind(heap.get(&pager, foreign)), ErrorKind::InvalidInput);
        assert_eq!(
            kind(heap.get_many(&pager, &[foreign])),
            ErrorKind::InvalidInput
        );
        assert_eq!(
            kind(heap.delete(&mut pager, foreign)),
            ErrorKind::InvalidInput
        );
        // The refused delete left the other heap's record alone.
        assert_eq!(other.get(&pager, foreign).unwrap().unwrap(), b"theirs");
    }

    #[test]
    fn out_of_range_slot_is_invalid_input() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let id = heap.insert(&mut pager, b"only").unwrap();
        let past = RecordId {
            page: id.page,
            slot: id.slot + 1,
        };
        assert_eq!(kind(heap.get(&pager, past)), ErrorKind::InvalidInput);
        assert_eq!(
            kind(heap.get_many(&pager, &[id, past])),
            ErrorKind::InvalidInput
        );
        assert_eq!(kind(heap.delete(&mut pager, past)), ErrorKind::InvalidInput);
        assert_eq!(heap.get(&pager, id).unwrap().unwrap(), b"only");
    }

    #[test]
    fn reattached_heap_checks_membership() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let ids: Vec<_> = (0..10u8)
            .map(|i| heap.insert(&mut pager, &[i; 40]).unwrap())
            .collect();
        // Reattach with the persisted list in a non-ascending order.
        let mut pages = heap.pages().to_vec();
        pages.reverse();
        let back = HeapFile::from_pages(128, pages);
        for (i, id) in ids.into_iter().enumerate() {
            assert_eq!(back.get(&pager, id).unwrap().unwrap(), vec![i as u8; 40]);
        }
    }

    #[test]
    fn reads_cost_io() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let id = heap.insert(&mut pager, b"x").unwrap();
        pager.reset_stats();
        heap.get(&pager, id).unwrap();
        assert_eq!(pager.stats().reads, 1, "each fetch is one page read");
    }
}
