//! Paged vector of fixed-width rows with structurally-shared clones.
//!
//! The MVCC building block behind the cheap-clone engines (columnar's id
//! columns, every O(graph) field of the linked engine). A `SegVec<T>` keeps
//! its rows in **pages** of a power-of-two number of rows, each page behind
//! an `Arc`:
//!
//! * `clone()` bumps one reference count per page — O(len / page), never
//!   O(len) — and the clone keeps exactly the rows present when it was
//!   taken, whatever is later written through the original;
//! * a write (`row_mut`, `push_row`, …) lands in one page and does
//!   `Arc::make_mut` on it: in place when no clone still holds the page, a
//!   copy of that one page when one does. Nothing written through one handle
//!   is ever visible through another.
//!
//! A row is `width` consecutive elements; `row(i)` is shift + mask + one
//! page-pointer load and never straddles a page. Width 1 is the plain
//! vector ([`SegVec::new`], `push`/`get`); [`RecordFile`] uses one row per
//! page of fixed-size records.
//!
//! Every page is allocated at full size and padded with `T::default()` past
//! the last row, so appending is a write into the tail page like any other
//! — there is no separate open segment.
//!
//! [`RecordFile`]: crate::records::RecordFile

use std::sync::{Arc, OnceLock};

use gm_obs::Counter;

/// Rows per page of a [`SegVec::new`] vector.
pub const SEGMENT: usize = 1024;

/// Paged, structurally shared vector; see module docs.
#[derive(Debug, Clone)]
pub struct SegVec<T> {
    /// Each exactly `width << shift` elements.
    pages: Vec<Arc<[T]>>,
    /// Elements per row.
    width: usize,
    /// log2(rows per page).
    shift: u32,
    /// Rows present.
    len: usize,
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        SegVec::new()
    }
}

impl<T> SegVec<T> {
    /// An empty vector of single-element rows, [`SEGMENT`] rows per page.
    pub fn new() -> Self {
        SegVec::with_rows(1, SEGMENT)
    }

    /// An empty vector whose rows are `width` elements, `rows_per_page`
    /// (a power of two) of them per page.
    pub fn with_rows(width: usize, rows_per_page: usize) -> Self {
        assert!(width > 0, "row width must be positive");
        assert!(
            rows_per_page.is_power_of_two(),
            "rows per page must be a power of two"
        );
        SegVec {
            pages: Vec::new(),
            width,
            shift: rows_per_page.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// (page index, element offset in the page) of row `index`.
    #[inline]
    fn locate(&self, index: usize) -> (usize, usize) {
        let in_page = index & ((1 << self.shift) - 1);
        (index >> self.shift, in_page * self.width)
    }

    /// The row at `index`, if in bounds.
    #[inline]
    pub fn row(&self, index: usize) -> Option<&[T]> {
        if index >= self.len {
            return None;
        }
        let (page, off) = self.locate(index);
        Some(&self.pages[page][off..off + self.width])
    }

    /// The first element of row `index` — the element itself at width 1.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.row(index).map(|r| &r[0])
    }

    /// Iterate all rows in index order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len).map(|index| self.row(index).expect("index below len"))
    }

    /// Append elements `start .. start + n` (width 1) to `out`.
    pub fn copy_range(&self, start: usize, n: usize, out: &mut Vec<T>)
    where
        T: Clone,
    {
        debug_assert_eq!(self.width, 1, "copy_range is for single-element rows");
        assert!(start + n <= self.len, "range out of bounds");
        let (mut at, end) = (start, start + n);
        while at < end {
            let (page, off) = self.locate(at);
            let take = ((1 << self.shift) - off).min(end - at);
            out.extend_from_slice(&self.pages[page][off..off + take]);
            at += take;
        }
    }

    /// Whether elements `start .. start + want.len()` (width 1) equal
    /// `want`, compared page by page in place; `false` when the range runs
    /// past the end.
    pub fn range_eq(&self, start: usize, want: &[T]) -> bool
    where
        T: PartialEq,
    {
        debug_assert_eq!(self.width, 1, "range_eq is for single-element rows");
        if start
            .checked_add(want.len())
            .is_none_or(|end| end > self.len)
        {
            return false;
        }
        let (mut at, mut want) = (start, want);
        while !want.is_empty() {
            let (page, off) = self.locate(at);
            let take = ((1 << self.shift) - off).min(want.len());
            if self.pages[page][off..off + take] != want[..take] {
                return false;
            }
            at += take;
            want = &want[take..];
        }
        true
    }

    /// How many of this vector's pages are not the same allocation as
    /// `other`'s page at that position — what a clone has copied or
    /// appended since it was taken (diagnostics and tests).
    pub fn unshared_pages(&self, other: &SegVec<T>) -> usize {
        self.pages
            .iter()
            .enumerate()
            .filter(|(i, page)| !other.pages.get(*i).is_some_and(|o| Arc::ptr_eq(page, o)))
            .count()
    }

    /// Approximate heap footprint in bytes of the rows present, counting
    /// shared pages once.
    pub fn bytes(&self) -> u64 {
        (self.len * self.width * std::mem::size_of::<T>()) as u64 + 48
    }
}

impl<T: Clone + Default> SegVec<T> {
    /// The page as a uniquely owned slice: copied first if a clone still
    /// shares it.
    #[inline]
    fn page_mut(&mut self, page: usize) -> &mut [T] {
        let page = &mut self.pages[page];
        // A clone dropped on another thread between this check and
        // `make_mut` turns a counted copy into an in-place write: the
        // counters can over-report by that race, never under-report.
        if Arc::strong_count(page) > 1 {
            note_copy(std::mem::size_of_val::<[T]>(page));
        }
        Arc::make_mut(page)
    }

    /// Mutable access to the row at `index`, if in bounds.
    #[inline]
    pub fn row_mut(&mut self, index: usize) -> Option<&mut [T]> {
        if index >= self.len {
            return None;
        }
        let (page, off) = self.locate(index);
        let width = self.width;
        Some(&mut self.page_mut(page)[off..off + width])
    }

    /// Mutable access to the first element of row `index`.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.row_mut(index).map(|r| &mut r[0])
    }

    /// Add the page row `self.len` falls in, if it is not there yet.
    fn grow(&mut self) {
        if self.len >> self.shift == self.pages.len() {
            self.pages
                .push(vec![T::default(); self.width << self.shift].into());
        }
    }

    /// Append one row of `T::default()` and return it for filling in.
    pub fn push_row(&mut self) -> &mut [T] {
        self.grow();
        let (page, off) = self.locate(self.len);
        self.len += 1;
        let width = self.width;
        &mut self.page_mut(page)[off..off + width]
    }

    /// Append one element (width 1).
    pub fn push(&mut self, value: T) {
        debug_assert_eq!(self.width, 1, "push is for single-element rows");
        self.push_row()[0] = value;
    }

    /// Append every element of `values` (width 1).
    pub fn extend_from_slice(&mut self, mut values: &[T]) {
        debug_assert_eq!(
            self.width, 1,
            "extend_from_slice is for single-element rows"
        );
        let page_elems = 1usize << self.shift;
        while !values.is_empty() {
            self.grow();
            let (page, off) = self.locate(self.len);
            let take = (page_elems - off).min(values.len());
            self.page_mut(page)[off..off + take].clone_from_slice(&values[..take]);
            self.len += take;
            values = &values[take..];
        }
    }
}

/// Count one copy-on-write page copy of `bytes` bytes in the global
/// registry (`storage.cow.pages_copied`, `storage.cow.bytes_copied`). The
/// handles are resolved on the first copy made while counters are on; with
/// `GM_OBS=off` this is one relaxed load, and it is only ever reached from
/// the copy branch.
#[cold]
fn note_copy(bytes: usize) {
    static COUNTERS: OnceLock<(Counter, Counter)> = OnceLock::new();
    if !gm_obs::counters_on() {
        return;
    }
    let (pages, copied) = COUNTERS.get_or_init(|| {
        let g = gm_obs::global();
        (
            g.counter("storage.cow.pages_copied"),
            g.counter("storage.cow.bytes_copied"),
        )
    });
    pages.inc();
    copied.add(bytes as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_across_pages() {
        let mut v = SegVec::new();
        for i in 0..(SEGMENT * 2 + 100) {
            v.push(i as u64);
        }
        assert_eq!(v.len(), SEGMENT * 2 + 100);
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(SEGMENT), Some(&(SEGMENT as u64)));
        assert_eq!(v.get(SEGMENT * 2 + 99), Some(&(SEGMENT as u64 * 2 + 99)));
        assert_eq!(v.get(SEGMENT * 2 + 100), None);
        let collected: Vec<u64> = v.rows().map(|r| r[0]).collect();
        assert_eq!(collected.len(), v.len());
        assert!(collected.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn clone_is_a_stable_watermark() {
        let mut v = SegVec::new();
        for i in 0..(SEGMENT + 7) {
            v.push(i as u64);
        }
        let frozen = v.clone();
        let watermark = frozen.len();
        for i in 0..(SEGMENT * 3) {
            v.push(900_000 + i as u64);
        }
        // The clone still sees exactly its prefix, element for element.
        assert_eq!(frozen.len(), watermark);
        assert_eq!(frozen.get(watermark - 1), Some(&(SEGMENT as u64 + 6)));
        assert_eq!(frozen.get(watermark), None);
        assert_eq!(frozen.rows().count(), watermark);
        // The full page is still shared; the tail page the original kept
        // appending to was copied, and three more were added.
        assert_eq!(frozen.unshared_pages(&v), 1);
        assert_eq!(v.unshared_pages(&frozen), 4);
    }

    #[test]
    fn clone_shares_every_page() {
        let mut v = SegVec::new();
        for i in 0..(SEGMENT * 64) {
            v.push(i as u64);
        }
        let frozen = v.clone();
        assert_eq!(frozen.pages.len(), 64);
        assert_eq!(frozen.unshared_pages(&v), 0);
    }

    #[test]
    fn write_copies_one_page_and_never_leaks() {
        let mut v = SegVec::new();
        for i in 0..(SEGMENT * 8) {
            v.push(i as u64);
        }
        let frozen = v.clone();
        *v.get_mut(SEGMENT * 3 + 5).unwrap() = 7;
        *v.get_mut(SEGMENT * 3 + 6).unwrap() = 8;
        assert_eq!(v.unshared_pages(&frozen), 1, "two writes, one page");
        assert_eq!(frozen.get(SEGMENT * 3 + 5), Some(&(SEGMENT as u64 * 3 + 5)));
        assert_eq!(v.get(SEGMENT * 3 + 5), Some(&7));
        // With the clone gone the page is unique again: writes are in place.
        drop(frozen);
        let before = Arc::as_ptr(&v.pages[0]);
        *v.get_mut(0).unwrap() = 1;
        assert_eq!(Arc::as_ptr(&v.pages[0]), before);
    }

    #[test]
    fn rows_never_straddle_pages() {
        // 3-element rows, 4 rows per page.
        let mut v: SegVec<u8> = SegVec::with_rows(3, 4);
        for i in 0..10u8 {
            v.push_row().copy_from_slice(&[i, i, i]);
        }
        assert_eq!(v.len(), 10);
        assert_eq!(v.pages.len(), 3);
        for i in 0..10u8 {
            assert_eq!(v.row(i as usize), Some(&[i, i, i][..]));
        }
        assert_eq!(v.row(10), None);
        v.row_mut(5).unwrap()[1] = 99;
        assert_eq!(v.row(5), Some(&[5, 99, 5][..]));
        assert_eq!(v.bytes(), 30 + 48);
    }

    #[test]
    fn extend_and_copy_range_cross_pages() {
        let mut v: SegVec<u8> = SegVec::with_rows(1, 8);
        let text: Vec<u8> = (0..30).collect();
        v.extend_from_slice(&text[..5]);
        v.extend_from_slice(&text[5..]);
        assert_eq!(v.len(), 30);
        let mut out = Vec::new();
        v.copy_range(6, 20, &mut out);
        assert_eq!(out, &text[6..26]);
        out.clear();
        v.copy_range(30, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_eq_compares_across_pages_in_place() {
        let mut v: SegVec<u8> = SegVec::with_rows(1, 8);
        let text: Vec<u8> = (0..30).collect();
        v.extend_from_slice(&text);
        // Inside one page, across one boundary, across three pages.
        assert!(v.range_eq(1, &text[1..7]));
        assert!(v.range_eq(6, &text[6..12]));
        assert!(v.range_eq(3, &text[3..29]));
        assert!(v.range_eq(0, &text));
        // A difference on the far side of a page boundary is seen.
        let mut off = text[6..20].to_vec();
        *off.last_mut().unwrap() ^= 1;
        assert!(!v.range_eq(6, &off));
        assert!(!v.range_eq(5, &text[6..20]));
        // Empty slices: equal anywhere in range, including the end.
        assert!(v.range_eq(0, &[]));
        assert!(v.range_eq(30, &[]));
        // Out of range: past the end, running over it, or overflowing.
        assert!(!v.range_eq(31, &[]));
        assert!(!v.range_eq(25, &text[25..30].repeat(2)));
        assert!(!v.range_eq(usize::MAX, &text[..1]));
        assert!(!SegVec::<u8>::new().range_eq(0, &[0]));
    }

    #[test]
    fn empty_and_default() {
        let v: SegVec<u32> = SegVec::default();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.get(0), None);
        assert_eq!(v.rows().count(), 0);
    }
}
