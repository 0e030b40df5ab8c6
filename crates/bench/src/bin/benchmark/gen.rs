//! The benchmark's own input generator: the retail shape, the statement
//! streams and the delta batches, all a pure function of `--seed`.
//!
//! Nothing here calls into `statcube_*` — the generator emits plain rows,
//! names and SQL text, and `sut.rs` turns them into engine objects. A change
//! under `crates/workload` therefore cannot change the load.

/// splitmix64: small, seedable, and good enough for load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose (`tag` names it), so adding a
    /// stream never shifts the draws of another.
    pub fn fork(seed: u64, tag: &str) -> Self {
        Self::new(seed ^ fnv1a(tag.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a 64 — the digest `--check-repeat` compares operation streams by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Zipf(`s`) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The size of one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    pub products: usize,
    pub categories: usize,
    pub cities: usize,
    pub stores_per_city: usize,
    pub days: usize,
    pub days_per_month: usize,
    pub rows: usize,
}

/// The pinned dataset: 400 × 24 × 90 members, 300,000 rows, ≈154k cells.
pub const RETAIL_300K: Shape = Shape {
    name: "retail_300k",
    products: 400,
    categories: 16,
    cities: 6,
    stores_per_city: 4,
    days: 90,
    days_per_month: 30,
    rows: 300_000,
};

/// The `--smoke` dataset: same structure, small enough for seconds.
pub const RETAIL_SMOKE: Shape = Shape {
    name: "retail_smoke",
    products: 40,
    categories: 4,
    cities: 3,
    stores_per_city: 2,
    days: 30,
    days_per_month: 10,
    rows: 6_000,
};

impl Shape {
    pub fn stores(&self) -> usize {
        self.cities * self.stores_per_city
    }

    pub fn cards(&self) -> [usize; 3] {
        [self.products, self.stores(), self.days]
    }

    /// User bytes of the fact rows: three `u32` coordinates and one `f64`.
    pub fn fact_bytes(&self) -> u64 {
        self.rows as u64 * 20
    }
}

/// Generated rows in plain form: product × store × day coordinates and an
/// integer-valued amount (so every sum is exact and order-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    pub coords: Vec<[u32; 3]>,
    pub amounts: Vec<f64>,
}

impl Rows {
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// The rows merged into their distinct cells, key-sorted: coordinates
    /// and the summed amount. This is the macro-data grain the SQL sessions
    /// serve (one fact per populated cell).
    pub fn cells(&self, shape: &Shape) -> Rows {
        let [_, stores, days] = shape.cards();
        let mut keyed: Vec<(u64, f64)> = self
            .coords
            .iter()
            .zip(&self.amounts)
            .map(|(c, &a)| {
                let key = (u64::from(c[0]) * stores as u64 + u64::from(c[1])) * days as u64
                    + u64::from(c[2]);
                (key, a)
            })
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let mut out = Rows { coords: Vec::new(), amounts: Vec::new() };
        let mut last = None;
        for (key, amount) in keyed {
            if last == Some(key) {
                if let Some(a) = out.amounts.last_mut() {
                    *a += amount;
                }
                continue;
            }
            last = Some(key);
            let d = (key % days as u64) as u32;
            let s = (key / days as u64 % stores as u64) as u32;
            let p = (key / (days as u64 * stores as u64)) as u32;
            out.coords.push([p, s, d]);
            out.amounts.push(amount);
        }
        out
    }

    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.len() * 20);
        for (c, a) in self.coords.iter().zip(&self.amounts) {
            for x in c {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            bytes.extend_from_slice(&a.to_bits().to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// Member names of the three dimensions and their parents, id-ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct Names {
    pub products: Vec<String>,
    pub category_of: Vec<String>,
    pub stores: Vec<String>,
    pub city_of: Vec<String>,
    pub days: Vec<String>,
    pub month_of: Vec<String>,
}

impl Names {
    pub fn of(shape: &Shape) -> Self {
        let products = (0..shape.products).map(|p| format!("p{p:04}")).collect();
        let category_of =
            (0..shape.products).map(|p| format!("cat{:02}", p % shape.categories)).collect();
        let mut stores = Vec::with_capacity(shape.stores());
        let mut city_of = Vec::with_capacity(shape.stores());
        for city in 0..shape.cities {
            for s in 0..shape.stores_per_city {
                stores.push(format!("city{city:02}/s{s}"));
                city_of.push(format!("city{city:02}"));
            }
        }
        let days = (0..shape.days).map(|d| format!("d{d:03}")).collect();
        let month_of =
            (0..shape.days).map(|d| format!("m{:02}", d / shape.days_per_month)).collect();
        Self { products, category_of, stores, city_of, days, month_of }
    }
}

/// The fact table of `shape` under `seed`: Zipf(1.0) on product (rank =
/// product id, so popularity does not move with the seed), uniform store and
/// day, amounts 1..=199.
pub fn facts(shape: &Shape, seed: u64) -> Rows {
    let mut rng = Rng::fork(seed, "facts");
    let zipf = Zipf::new(shape.products, 1.0);
    let n = shape.rows;
    let mut out = Rows { coords: Vec::with_capacity(n), amounts: Vec::with_capacity(n) };
    for _ in 0..n {
        let p = zipf.sample(&mut rng) as u32;
        let s = rng.below(shape.stores()) as u32;
        let d = rng.below(shape.days) as u32;
        out.coords.push([p, s, d]);
        out.amounts.push((1 + rng.below(199)) as f64);
    }
    out
}

/// Of every [`NEW_CELL_EVERY`] delta rows, one draws its coordinates uniformly
/// from the whole domain instead of from a fact row.
pub const NEW_CELL_EVERY: usize = 10;

/// An endless seeded supply of delta batches of `batch_rows` rows, each with
/// a fresh amount. Nine rows in ten take the coordinates of a fact row drawn
/// uniformly (so the product skew is the facts') and update a populated cell.
/// Every tenth row draws its coordinates uniformly from the domain, of which
/// `retail_300k` populates under a fifth, so it mostly inserts a new cell (a
/// product's first sale at a store on a day) and a fold's insert path is
/// exercised beside its update path. The store grows by under a tenth of a
/// cell per row: about 3 % over the longest phase.
#[derive(Debug, Clone)]
pub struct DeltaStream<'a> {
    facts: &'a Rows,
    cards: [usize; 3],
    batch_rows: usize,
    rng: Rng,
}

impl<'a> DeltaStream<'a> {
    pub fn new(shape: &Shape, facts: &'a Rows, seed: u64, tag: &str, batch_rows: usize) -> Self {
        Self { facts, cards: shape.cards(), batch_rows, rng: Rng::fork(seed, tag) }
    }

    pub fn next_batch(&mut self) -> Rows {
        let n = self.batch_rows;
        let mut out = Rows { coords: Vec::with_capacity(n), amounts: Vec::with_capacity(n) };
        for i in 0..n {
            let coords = if i % NEW_CELL_EVERY == NEW_CELL_EVERY - 1 {
                self.cards.map(|card| self.rng.below(card) as u32)
            } else {
                self.facts.coords[self.rng.below(self.facts.len())]
            };
            out.coords.push(coords);
            out.amounts.push((1 + self.rng.below(199)) as f64);
        }
        out
    }

    /// Digest of the first `n` batches (of a fresh copy of the stream).
    pub fn digest(&self, n: usize) -> u64 {
        let mut copy = self.clone();
        let mut acc = Vec::with_capacity(n * 8);
        for _ in 0..n {
            acc.extend_from_slice(&copy.next_batch().digest().to_le_bytes());
        }
        fnv1a(&acc)
    }
}

const SELECT: &str = "SELECT SUM(amount) FROM sales";

/// The eight unfiltered dimension-level statements of `warm_sql`, in Zipf
/// rank order (rank 0 is drawn most often).
pub fn warm_statements() -> Vec<String> {
    [
        " GROUP BY product",
        " GROUP BY store",
        " GROUP BY day",
        " GROUP BY product, store",
        " GROUP BY store, day",
        " GROUP BY CUBE(product, store)",
        " GROUP BY ROLLUP(store, day)",
        "",
    ]
    .iter()
    .map(|tail| format!("{SELECT}{tail}"))
    .collect()
}

/// A cyclic operation stream: `ops[i % ops.len()]` indexes `statements`.
/// `checked` lists the distinct statements verified against the oracle
/// before timing.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementStream {
    pub statements: Vec<String>,
    pub ops: Vec<u32>,
    pub checked: Vec<u32>,
}

impl StatementStream {
    pub fn sql(&self, i: usize) -> &str {
        &self.statements[self.ops[i % self.ops.len()] as usize]
    }

    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for &op in &self.ops {
            bytes.extend_from_slice(self.statements[op as usize].as_bytes());
            bytes.push(0);
        }
        fnv1a(&bytes)
    }
}

/// Length of the pre-drawn `warm_sql` cycle.
const WARM_CYCLE: usize = 1 << 16;

/// `warm_sql`: Zipf(1.1) draws over the eight statements.
pub fn warm_stream(seed: u64) -> StatementStream {
    let statements = warm_statements();
    let zipf = Zipf::new(statements.len(), 1.1);
    let mut rng = Rng::fork(seed, "warm_sql");
    let ops = (0..WARM_CYCLE).map(|_| zipf.sample(&mut rng) as u32).collect();
    let checked = (0..statements.len() as u32).collect();
    StatementStream { statements, ops, checked }
}

/// A seeded rotation of `0..n`: every member once per cycle, start and
/// stride drawn from the seed (stride coprime to `n`).
fn rotation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let start = rng.below(n);
    let stride = (1..n).map(|_| 1 + rng.below(n.max(2) - 1)).find(|&s| gcd(s, n) == 1).unwrap_or(1);
    (0..n).map(|i| (start + i * stride) % n).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// How many literals of each filtered template are checked against the
/// store-free oracle before timing (each check costs a full object scan).
const CHECKED_LITERALS: usize = 2;

/// Operations per round of [`cold_stream`]. Seven, not six: with an even
/// number of equally frequent statement classes the median latency sits on
/// the edge between two classes and jumps between them from run to run.
pub const COLD_ROUND: usize = 7;

/// `cold_scan`: round-robin over seven statements; the two filtered ones
/// rotate their literal through every store / product.
pub fn cold_stream(shape: &Shape, names: &Names, seed: u64) -> StatementStream {
    let mut rng = Rng::fork(seed, "cold_scan");
    let store_rot = rotation(shape.stores(), &mut rng);
    let product_rot = rotation(shape.products, &mut rng);
    let mut statements = vec![
        format!("{SELECT} GROUP BY product"),
        format!("{SELECT} GROUP BY store"),
        format!("{SELECT} GROUP BY CUBE(product, store)"),
        format!("{SELECT} GROUP BY ROLLUP(store, day)"),
        format!("{SELECT} GROUP BY store, day"),
    ];
    let mut checked: Vec<u32> = (0..statements.len() as u32).collect();
    let store_base = statements.len() as u32;
    for &s in &store_rot {
        statements.push(format!("{SELECT} WHERE store = '{}' GROUP BY product", names.stores[s]));
    }
    let product_base = statements.len() as u32;
    for &p in &product_rot {
        statements
            .push(format!("{SELECT} WHERE product = '{}' GROUP BY store, day", names.products[p]));
    }
    for k in 0..CHECKED_LITERALS as u32 {
        checked.push(store_base + k);
        checked.push(product_base + k);
    }
    // One full cycle covers every literal of both rotations equally often.
    let rounds = lcm(store_rot.len(), product_rot.len());
    let mut ops = Vec::with_capacity(rounds * COLD_ROUND);
    for k in 0..rounds {
        ops.extend_from_slice(&[
            0,
            1,
            2,
            store_base + (k % store_rot.len()) as u32,
            product_base + (k % product_rot.len()) as u32,
            3,
            4,
        ]);
    }
    StatementStream { statements, ops, checked }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// Operations per round of [`sharded_stream`]: two slices, one scatter.
pub const SHARDED_ROUND: usize = 3;

/// `sharded_scatter`: of every three operations two are shard-key slices
/// (one product, pruned to its shard) and the third rotates through three
/// unfiltered statements that scatter to every shard. Two to one, not half
/// and half: at one to one the median latency sits on the edge between the
/// two classes — 0.1 ms or 1.6 ms depending on the run.
pub fn sharded_stream(shape: &Shape, names: &Names, seed: u64) -> StatementStream {
    let mut rng = Rng::fork(seed, "sharded_scatter");
    let product_rot = rotation(shape.products, &mut rng);
    let mut statements = vec![
        format!("{SELECT} GROUP BY product"),
        format!("{SELECT} GROUP BY store"),
        format!("{SELECT} GROUP BY ROLLUP(store, day)"),
    ];
    let mut checked: Vec<u32> = (0..statements.len() as u32).collect();
    let slice_base = statements.len() as u32;
    for &p in &product_rot {
        statements.push(format!("{SELECT} WHERE product = '{}' GROUP BY store", names.products[p]));
    }
    checked.extend((0..CHECKED_LITERALS as u32).map(|k| slice_base + k));
    let rounds = lcm(product_rot.len(), 3);
    let mut ops = Vec::with_capacity(rounds * SHARDED_ROUND);
    for k in 0..rounds {
        ops.push(slice_base + (2 * k % product_rot.len()) as u32);
        ops.push(slice_base + ((2 * k + 1) % product_rot.len()) as u32);
        ops.push((k % 3) as u32);
    }
    StatementStream { statements, ops, checked }
}

/// The cuboid masks the `ingest_mixed` reader asks for, in Zipf rank order
/// (bit 0 = product, bit 1 = store, bit 2 = day).
pub const READER_MASKS: [u32; 8] = [0b001, 0b010, 0b100, 0b011, 0b110, 0b000, 0b101, 0b111];

/// Length of the pre-drawn reader cycle.
const READER_CYCLE: usize = 1 << 14;

/// `ingest_mixed` phase B: Zipf(1.1) draws over all eight cuboid masks.
pub fn reader_stream(seed: u64) -> Vec<u32> {
    let zipf = Zipf::new(READER_MASKS.len(), 1.1);
    let mut rng = Rng::fork(seed, "ingest_mixed.reader");
    (0..READER_CYCLE).map(|_| READER_MASKS[zipf.sample(&mut rng)]).collect()
}

pub fn mask_stream_digest(masks: &[u32]) -> u64 {
    let bytes: Vec<u8> = masks.iter().flat_map(|m| m.to_le_bytes()).collect();
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = facts(&RETAIL_SMOKE, 11);
        let b = facts(&RETAIL_SMOKE, 11);
        let c = facts(&RETAIL_SMOKE, 12);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.len(), RETAIL_SMOKE.rows);
        let names = Names::of(&RETAIL_SMOKE);
        assert_eq!(warm_stream(11), warm_stream(11));
        assert_ne!(warm_stream(11).digest(), warm_stream(12).digest());
        assert_eq!(cold_stream(&RETAIL_SMOKE, &names, 11), cold_stream(&RETAIL_SMOKE, &names, 11));
        assert_eq!(
            sharded_stream(&RETAIL_SMOKE, &names, 11).digest(),
            sharded_stream(&RETAIL_SMOKE, &names, 11).digest()
        );
        assert_eq!(reader_stream(11), reader_stream(11));
        let d = DeltaStream::new(&RETAIL_SMOKE, &a, 11, "t", 20);
        assert_eq!(d.digest(4), DeltaStream::new(&RETAIL_SMOKE, &b, 11, "t", 20).digest(4));
        assert_ne!(d.digest(4), DeltaStream::new(&RETAIL_SMOKE, &a, 12, "t", 20).digest(4));
    }

    #[test]
    fn rows_stay_in_domain_with_integer_amounts() {
        let r = facts(&RETAIL_SMOKE, 3);
        let [p, s, d] = RETAIL_SMOKE.cards();
        for (c, a) in r.coords.iter().zip(&r.amounts) {
            assert!((c[0] as usize) < p && (c[1] as usize) < s && (c[2] as usize) < d);
            assert!(*a >= 1.0 && *a <= 199.0 && a.fract() == 0.0);
        }
    }

    #[test]
    fn cells_merge_duplicates_and_keep_the_total() {
        let r = facts(&RETAIL_SMOKE, 5);
        let cells = r.cells(&RETAIL_SMOKE);
        assert!(cells.len() < r.len());
        assert!(cells.coords.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert_eq!(cells.amounts.iter().sum::<f64>(), r.amounts.iter().sum::<f64>());
    }

    #[test]
    fn delta_batches_update_populated_cells_and_insert_some_new_ones() {
        let facts = facts(&RETAIL_SMOKE, 5);
        let cells = facts.cells(&RETAIL_SMOKE);
        let [p, s, d] = RETAIL_SMOKE.cards();
        let mut stream = DeltaStream::new(&RETAIL_SMOKE, &facts, 5, "t", 200);
        let mut all = facts.clone();
        for _ in 0..8 {
            let batch = stream.next_batch();
            assert_eq!(batch.len(), 200);
            assert!(batch.amounts.iter().all(|a| (1.0..=199.0).contains(a) && a.fract() == 0.0));
            for (i, c) in batch.coords.iter().enumerate() {
                assert!((c[0] as usize) < p && (c[1] as usize) < s && (c[2] as usize) < d);
                if i % NEW_CELL_EVERY != NEW_CELL_EVERY - 1 {
                    assert!(cells.coords.binary_search(c).is_ok(), "row {i} updates a cell");
                }
            }
            all.coords.extend_from_slice(&batch.coords);
            all.amounts.extend_from_slice(&batch.amounts);
        }
        let grown = all.cells(&RETAIL_SMOKE).len() - cells.len();
        assert!(grown > 0 && grown <= 8 * 200 / NEW_CELL_EVERY, "{grown} new cells");
    }

    #[test]
    fn rotations_visit_every_member_once() {
        for n in [1usize, 2, 24, 400] {
            let mut rot = rotation(n, &mut Rng::new(n as u64));
            rot.sort_unstable();
            assert_eq!(rot, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cold_cycle_is_round_robin_over_seven_and_covers_every_literal() {
        let names = Names::of(&RETAIL_SMOKE);
        let s = cold_stream(&RETAIL_SMOKE, &names, 9);
        assert_eq!(s.ops.len() % COLD_ROUND, 0);
        let mut used: Vec<u32> = s.ops.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), s.statements.len());
        assert_eq!(s.statements.len(), 5 + RETAIL_SMOKE.stores() + RETAIL_SMOKE.products);
    }

    #[test]
    fn sharded_cycle_is_two_slices_then_a_scatter() {
        let names = Names::of(&RETAIL_SMOKE);
        let s = sharded_stream(&RETAIL_SMOKE, &names, 9);
        assert_eq!(s.ops.len() % SHARDED_ROUND, 0);
        for i in 0..s.ops.len() {
            assert_eq!(s.sql(i).contains("WHERE product"), i % SHARDED_ROUND != 2);
        }
        let mut used = s.ops.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), s.statements.len(), "every product is sliced");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(8, 1.1);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[7]);
    }
}
