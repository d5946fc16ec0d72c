//! The benchmark's inputs, made from the workload seed alone.
//!
//! Pages come from `metaform_datasets::dataset::generate_source` over
//! all 25 schemas the generator knows. They are cut into jobs; for
//! `revisit_zipf` the jobs are a Zipf re-visit stream over a page pool
//! in which a fixed share of visits is mutated by the
//! `metaform_datasets::revisit` edits. The program under test receives
//! only the HTML.

use metaform_datasets::dataset::generate_source;
use metaform_datasets::{domains, revisit, GenParams, Schema, Source};
use std::collections::{HashMap, HashSet};

/// splitmix64: a small seeded generator, so the inputs depend on the
/// seed and on nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every schema the generator knows — the three core domains, the six
/// NewDomain schemas and the sixteen Random pools — each with the
/// profile its evaluation dataset uses.
pub fn schemas() -> Vec<(Schema, GenParams)> {
    let core = [
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ];
    core.into_iter()
        .map(|s| (s, GenParams::basic()))
        .chain(
            domains::new_domains()
                .into_iter()
                .map(|s| (s, GenParams::new_domain())),
        )
        .chain(
            domains::random_pools()
                .into_iter()
                .map(|s| (s, GenParams::random())),
        )
        .collect()
}

/// `n` pages with pairwise distinct HTML, round-robin over the schemas
/// and stratified by condition count: each schema contributes, for
/// every condition count the generator can draw for it, a fixed number
/// of pages in the proportion the generator draws that count. A page's
/// cost follows its condition count, so fixing the counts keeps a
/// pool's total cost from swinging with the seed, while everything else
/// about each page stays the generator's random choice.
pub fn pool(seed: u64, n: usize) -> Vec<Source> {
    let schemas = schemas();
    let per_schema = n.div_ceil(schemas.len());
    let mut seen = HashSet::new();
    let mut columns = Vec::with_capacity(schemas.len());
    for (schema, params) in &schemas {
        let mut left = quotas(per_schema, params, schema.fields.len());
        let mut column = Vec::with_capacity(per_schema);
        let mut index = 0usize;
        while column.len() < per_schema {
            assert!(index < 1 << 20, "{} ran out of distinct pages", schema.name);
            let source = generate_source(schema, index, seed, params);
            index += 1;
            let stratum = &mut left[source.truth.len()];
            if *stratum > 0 && seen.insert(crate::workload::digest(&source.html)) {
                *stratum -= 1;
                column.push(source);
            }
        }
        columns.push(column.into_iter());
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..per_schema {
        out.extend(columns.iter_mut().filter_map(Iterator::next));
    }
    out.truncate(n);
    out
}

/// Pages per condition count out of `total`: the generator draws a
/// count uniformly from the profile's range and caps it at the schema's
/// field count. Largest-remainder rounding makes the quotas sum to
/// `total`.
fn quotas(total: usize, params: &GenParams, fields: usize) -> Vec<usize> {
    let (lo, hi) = (params.min_conditions, params.max_conditions);
    let mut share = vec![0.0f64; hi.max(fields) + 1];
    for k in lo..=hi {
        share[k.min(fields)] += 1.0 / (hi - lo + 1) as f64;
    }
    let raw: Vec<f64> = share.iter().map(|p| p * total as f64).collect();
    let mut quota: Vec<usize> = raw.iter().map(|r| r.floor() as usize).collect();
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| (raw[b] - raw[b].floor()).total_cmp(&(raw[a] - raw[a].floor())));
    let short = total - quota.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        quota[k] += 1;
    }
    quota
}

/// The page every set-up serves first. Fixed rather than drawn from the
/// seed: a set-up is a few hundred microseconds, and how long one page
/// takes varies more from page to page than set-up time from run to
/// run.
pub fn probe_page() -> String {
    generate_source(&domains::books(), 0, 0x5E70, &GenParams::basic()).html
}

/// The HTML a workload sends, as a table of distinct documents, and
/// the jobs it sends them in (indices into the table). Jobs are sent in
/// order and the sequence repeats when a run outlasts it.
pub struct Inputs {
    /// Distinct documents. The first `pool.len()` entries are the
    /// generated pages themselves; any after them are mutated visits.
    pub html: Vec<String>,
    /// The generated pages' ground truth (their HTML moved to `html`),
    /// until the references take it.
    pub pool: Vec<Source>,
    pub jobs: Vec<Vec<usize>>,
}

impl Inputs {
    /// The pool cut into consecutive jobs of `job_pages` pages: every
    /// page of the pool is sent once before any page is sent again.
    pub fn chunked(mut pool: Vec<Source>, job_pages: usize) -> Self {
        let html = take_html(&mut pool);
        let jobs = (0..html.len())
            .collect::<Vec<_>>()
            .chunks(job_pages)
            .map(<[usize]>::to_vec)
            .collect();
        Inputs { html, pool, jobs }
    }

    /// A Zipf(`exponent`) re-visit stream of `visits` visits over the
    /// pool, in jobs of `job_pages`. Page popularity ranks are one
    /// seeded permutation of the pool, fixed for the run. A share
    /// `mutate` of visits sees the page after one of the three revisit
    /// edits (chosen per visit; a page the edit does not apply to is
    /// visited unchanged). Each (page, edit) pair is one fixed document,
    /// so a mutated page revisited with the same edit is an exact
    /// repeat.
    pub fn zipf(
        mut pool: Vec<Source>,
        seed: u64,
        visits: usize,
        job_pages: usize,
        exponent: f64,
        mutate: f64,
    ) -> Self {
        type Edit = fn(&str) -> Option<String>;
        const EDITS: [Edit; 3] = [
            revisit::label_edit,
            revisit::insert_row,
            revisit::bbox_jitter,
        ];
        let mut rng = Rng::new(seed ^ 0x2E71_5175);
        let mut html = take_html(&mut pool);
        let mut rank: Vec<usize> = (0..pool.len()).collect();
        for i in (1..rank.len()).rev() {
            rank.swap(i, rng.below(i + 1));
        }
        let mut cdf = Vec::with_capacity(pool.len());
        let mut total = 0.0;
        for r in 1..=pool.len() {
            total += 1.0 / (r as f64).powf(exponent);
            cdf.push(total);
        }
        let mut variants: HashMap<(usize, usize), usize> = HashMap::new();
        let mut stream = Vec::with_capacity(visits);
        for _ in 0..visits {
            let u = rng.unit() * total;
            let page = rank[cdf.partition_point(|&c| c <= u).min(pool.len() - 1)];
            let mut doc = page;
            if rng.unit() < mutate {
                let edit = rng.below(EDITS.len());
                if let Some(&at) = variants.get(&(page, edit)) {
                    doc = at;
                } else if let Some(mutated) = EDITS[edit](&html[page]) {
                    html.push(mutated);
                    doc = html.len() - 1;
                    variants.insert((page, edit), doc);
                }
            }
            stream.push(doc);
        }
        let jobs = stream.chunks(job_pages).map(<[usize]>::to_vec).collect();
        Inputs { html, pool, jobs }
    }
}

fn take_html(pool: &mut [Source]) -> Vec<String> {
    pool.iter_mut()
        .map(|s| std::mem::take(&mut s.html))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    #[test]
    fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
        for kind in ALL {
            let (a, b, c) = (kind.inputs(7), kind.inputs(7), kind.inputs(8));
            assert_eq!(a.html, b.html, "{}", kind.name());
            assert_eq!(a.jobs, b.jobs, "{}", kind.name());
            assert_ne!(a.html, c.html, "{}", kind.name());
        }
    }

    #[test]
    fn pools_hold_each_condition_count_in_the_generators_proportion() {
        let schemas = schemas();
        let n = 4 * schemas.len() * 12;
        for seed in [1, 2] {
            let pool = pool(seed, n);
            assert_eq!(pool.len(), n);
            for (schema, params) in &schemas {
                let want = quotas(n / schemas.len(), params, schema.fields.len());
                let mut got = vec![0; want.len()];
                for s in pool.iter().filter(|s| s.domain == schema.name) {
                    got[s.truth.len()] += 1;
                }
                assert_eq!(got, want, "{} seed {seed}", schema.name);
            }
        }
    }

    #[test]
    fn the_revisit_stream_repeats_pages_and_mutates_some_visits() {
        let inputs = crate::workload::Kind::RevisitZipf.inputs(3);
        let visits: Vec<usize> = inputs.jobs.concat();
        let mutated = visits.iter().filter(|&&d| d >= inputs.pool.len()).count();
        let share = mutated as f64 / visits.len() as f64;
        assert!((0.05..0.2).contains(&share), "mutated share {share}");
        let distinct: HashSet<_> = visits.iter().collect();
        assert!(
            distinct.len() * 4 < visits.len(),
            "a re-visit stream repeats pages"
        );
    }
}
