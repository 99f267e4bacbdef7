//! Two-list corpora laid out to trip a forward block cursor, shared by
//! the pruned-equivalence suites (`topk_equivalence`, `shard_equivalence`).

use iiu_index::{Bm25Params, DocId, InvertedIndex, Partitioner, Posting, PostingList};

/// The two terms every layout indexes.
pub const TERMS: (&str, &str) = ("a", "b");

/// Result sizes to ask for: none, one, the usual ten, more than any list.
pub const LAYOUT_KS: [usize; 4] = [0, 1, 10, 100_000];

/// One adversarial corpus: the docIDs of lists `a` and `b`, the block
/// length both are cut into, and whether every posting scores the same.
pub struct AdversarialLayout {
    pub name: &'static str,
    a: Vec<DocId>,
    b: Vec<DocId>,
    block_len: usize,
    flat: bool,
}

/// A small deterministic hash, for tfs and document lengths that vary
/// without following the docID order.
fn mix(x: u32, salt: u32) -> u32 {
    let mut h = x.wrapping_mul(0x9E37_79B1) ^ salt.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 15;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 13)
}

impl AdversarialLayout {
    /// Builds the layout's index. Unless the layout is flat, one posting
    /// in sixteen is a high-tf outlier so that block bounds differ and the
    /// threshold climbs in steps.
    pub fn index(&self) -> InvertedIndex {
        let n_docs = self.a.iter().chain(&self.b).max().map_or(0, |&d| d + 1);
        let list = |docs: &[DocId], salt: u32| {
            let tf = |d: DocId| match (self.flat, mix(d, salt) % 16) {
                (true, _) => 1,
                (false, 0) => 20 + mix(d, salt + 1) % 20,
                (false, r) => 1 + r % 3,
            };
            PostingList::from_sorted(docs.iter().map(|&d| Posting::new(d, tf(d))).collect())
        };
        let doc_lens =
            (0..n_docs).map(|d| if self.flat { 64 } else { 20 + mix(d, 7) % 200 }).collect();
        InvertedIndex::from_lists(
            vec![
                (TERMS.0.to_string(), list(&self.a, 1)),
                (TERMS.1.to_string(), list(&self.b, 2)),
            ],
            doc_lens,
            Partitioner::fixed(self.block_len),
            Bm25Params::default(),
        )
        .expect("layout lists are sorted and in range")
    }
}

/// The layouts: each names the cursor mistake it would expose.
pub fn adversarial_layouts() -> Vec<AdversarialLayout> {
    let step =
        |from: DocId, n: u32, by: u32| (0..n).map(|i| from + i * by).collect::<Vec<_>>();
    // Irregular gaps of 1..=`widest`, so the two lists collide only now
    // and then.
    let ragged = |n: u32, salt: u32, widest: u32| {
        let mut d = 0;
        (0..n)
            .map(|i| {
                d += 1 + mix(i, salt) % widest;
                d
            })
            .collect::<Vec<DocId>>()
    };
    let layout =
        |name, a, b, block_len| AdversarialLayout { name, a, b, block_len, flat: false };
    vec![
        // Every interval ends in the middle of the other list's block.
        layout("misaligned blocks", ragged(300, 8, 5), ragged(420, 9, 5), 4),
        // The rare term's outliers are the top-k whether or not the
        // common term's low-scoring postings join them: one bound stays
        // above the threshold while the other is far below it.
        layout("rare over common", ragged(120, 10, 40), ragged(700, 11, 6), 4),
        // Every skip_to changes block; a block is never half-consumed.
        layout("blocks of one posting", ragged(60, 3, 5), ragged(70, 4, 5), 1),
        // No skip array to gallop: `end()` is the list's end from the start.
        layout("single-block lists", ragged(30, 5, 5), ragged(50, 6, 5), 64),
        // One cursor is exhausted before the other's first block.
        layout("a wholly before b", step(0, 100, 2), step(1000, 150, 2), 4),
        layout("b wholly before a", step(5000, 150, 3), step(10, 100, 3), 4),
        // Blocks alternate without ever overlapping: only single-list runs.
        layout(
            "interleaved blocks",
            (0..40).flat_map(|i| step(i * 16, 4, 1)).collect(),
            (0..40).flat_map(|i| step(i * 16 + 8, 4, 1)).collect(),
            4,
        ),
        // Both cursors reach every block end in the same step.
        layout("identical skip boundaries", step(3, 120, 5), step(3, 120, 5), 4),
        // Every short posting matches; long blocks in between hold none.
        layout("strict subset", step(0, 50, 12), step(0, 600, 1), 4),
        // Gallop over hundreds of blocks per short posting. The short
        // list's docIDs are multiples of four: three of four shards hold
        // none of it.
        layout("1000:1 lengths", step(40, 20, 1000), step(0, 20_000, 1), 16),
        // Every candidate ties the threshold: `<=` against `<` decides.
        AdversarialLayout {
            name: "all-equal scores",
            a: step(0, 90, 2),
            b: step(0, 60, 3),
            block_len: 4,
            flat: true,
        },
    ]
}
