//! Domain schemas for the survey's three core domains (Books,
//! Automobiles, Airfares), the NewDomain set, and the generic pools
//! behind the Random dataset — plus the per-domain [`BudgetPreset`]
//! table that seeds the adaptive batch driver's first-pass budgets.

use crate::schema::{Field, FieldKind, Schema};
use metaform_extractor::{BatchStats, ErrorKind, FailureOutcome, FailureRecord, FormExtractor};
use std::time::Duration;

fn f(label: &str, control: &str, kind: FieldKind) -> Field {
    Field::new(label, control, kind)
}

fn en(values: &[&str]) -> FieldKind {
    FieldKind::Enum(values.iter().map(|s| s.to_string()).collect())
}

fn nr(values: &[&str]) -> FieldKind {
    FieldKind::NumRange(values.iter().map(|s| s.to_string()).collect())
}

fn qty(n: u32) -> FieldKind {
    FieldKind::Quantity((1..=n).map(|i| i.to_string()).collect())
}

/// Books — the amazon.com-style domain of paper Figure 3(a).
pub fn books() -> Schema {
    Schema {
        name: "Books".into(),
        fields: vec![
            f("Author", "author", FieldKind::FreeText),
            f("Title", "title", FieldKind::FreeText),
            f("Keywords", "keywords", FieldKind::FreeText),
            f(
                "Subject",
                "subject",
                en(&[
                    "Fiction",
                    "Nonfiction",
                    "Mystery",
                    "Romance",
                    "History",
                    "Science",
                ]),
            ),
            f("Publisher", "publisher", FieldKind::FreeText),
            f("Price", "price", nr(&["5", "10", "20", "50", "100"])),
            f("Format", "format", en(&["Hardcover", "Paperback", "Audio"])),
            f("ISBN", "isbn", FieldKind::FreeText),
            f(
                "Reader age",
                "age",
                en(&["0-4 years", "5-8 years", "9-12 years", "Teens", "Adult"]),
            ),
            f("Condition", "cond", en(&["New", "Used", "Collectible"])),
            f("In stock only", "stock", FieldKind::Flag),
            f(
                "Language",
                "lang",
                en(&["English", "Spanish", "French", "German"]),
            ),
        ],
    }
}

/// Automobiles — classifieds-style search.
pub fn automobiles() -> Schema {
    Schema {
        name: "Automobiles".into(),
        fields: vec![
            f(
                "Make",
                "make",
                en(&["Ford", "Toyota", "Honda", "Chevrolet", "BMW", "Nissan"]),
            ),
            f("Model", "model", FieldKind::FreeText),
            f(
                "Price",
                "price",
                nr(&["5000", "10000", "15000", "20000", "30000"]),
            ),
            f("Year", "year", FieldKind::YearRange),
            f("Zip code", "zip", FieldKind::FreeText),
            f("Distance", "dist", FieldKind::FreeText),
            f(
                "Body style",
                "body",
                en(&["Sedan", "Coupe", "SUV", "Truck", "Convertible"]),
            ),
            f(
                "Mileage",
                "miles",
                nr(&["10000", "30000", "60000", "100000"]),
            ),
            f(
                "Color",
                "color",
                en(&["Black", "White", "Silver", "Red", "Blue"]),
            ),
            f("Transmission", "trans", en(&["Automatic", "Manual"])),
            f("Photos only", "photos", FieldKind::Flag),
            f("Keywords", "kw", FieldKind::FreeText),
        ],
    }
}

/// Airfares — the aa.com-style domain of paper Figure 3(b).
pub fn airfares() -> Schema {
    Schema {
        name: "Airfares".into(),
        fields: vec![
            f("From", "orig", FieldKind::FreeText),
            f("To", "dest", FieldKind::FreeText),
            f("Departing", "dep", FieldKind::Date),
            f("Returning", "ret", FieldKind::Date),
            f("Adults", "adults", qty(6)),
            f("Children", "children", qty(5)),
            f(
                "Trip type",
                "trip",
                en(&["Round trip", "One way", "Multi-city"]),
            ),
            f("Class", "class", en(&["Coach", "Business", "First"])),
            f(
                "Airline",
                "airline",
                en(&["American", "United", "Delta", "Continental"]),
            ),
            f("Seniors", "seniors", qty(4)),
            f("Flexible dates", "flex", FieldKind::Flag),
        ],
    }
}

/// The six NewDomain schemas (five TEL-8 domains plus RealEstates,
/// paper §6).
pub fn new_domains() -> Vec<Schema> {
    vec![
        Schema {
            name: "Jobs".into(),
            fields: vec![
                f("Keywords", "kw", FieldKind::FreeText),
                f("Location", "loc", FieldKind::FreeText),
                f(
                    "Category",
                    "cat",
                    en(&["Engineering", "Sales", "Finance", "Education", "Healthcare"]),
                ),
                f(
                    "Salary",
                    "salary",
                    nr(&["30000", "50000", "80000", "120000"]),
                ),
                f(
                    "Job type",
                    "type",
                    en(&["Full time", "Part time", "Contract"]),
                ),
                f(
                    "Posted within",
                    "posted",
                    en(&["1 day", "7 days", "30 days"]),
                ),
                f("Company", "company", FieldKind::FreeText),
            ],
        },
        Schema {
            name: "Movies".into(),
            fields: vec![
                f("Title", "title", FieldKind::FreeText),
                f(
                    "Genre",
                    "genre",
                    en(&["Action", "Comedy", "Drama", "Horror", "Documentary"]),
                ),
                f("Director", "director", FieldKind::FreeText),
                f("Actor", "actor", FieldKind::FreeText),
                f("Rating", "rating", en(&["G", "PG", "PG-13", "R"])),
                f("Format", "format", en(&["DVD", "VHS"])),
                f("Price", "price", nr(&["5", "10", "20", "35"])),
            ],
        },
        Schema {
            name: "Music".into(),
            fields: vec![
                f("Artist", "artist", FieldKind::FreeText),
                f("Album", "album", FieldKind::FreeText),
                f("Song title", "song", FieldKind::FreeText),
                f(
                    "Genre",
                    "genre",
                    en(&["Rock", "Jazz", "Classical", "Pop", "Country"]),
                ),
                f("Format", "format", en(&["CD", "Cassette", "Vinyl"])),
                f("Price", "price", nr(&["5", "10", "15", "25"])),
            ],
        },
        Schema {
            name: "Hotels".into(),
            fields: vec![
                f("City", "city", FieldKind::FreeText),
                f("Check in", "checkin", FieldKind::Date),
                f("Check out", "checkout", FieldKind::Date),
                f("Guests", "guests", qty(6)),
                f("Rooms", "rooms", qty(4)),
                f(
                    "Stars",
                    "stars",
                    en(&["2 stars", "3 stars", "4 stars", "5 stars"]),
                ),
                f("Price", "price", nr(&["50", "100", "200", "400"])),
            ],
        },
        Schema {
            name: "CarRentals".into(),
            fields: vec![
                f("Pick up city", "pucity", FieldKind::FreeText),
                f("Pick up date", "pudate", FieldKind::Date),
                f("Drop off date", "dodate", FieldKind::Date),
                f(
                    "Car type",
                    "cartype",
                    en(&["Economy", "Compact", "Midsize", "SUV", "Luxury"]),
                ),
                f(
                    "Company",
                    "company",
                    en(&["Hertz", "Avis", "Budget", "National"]),
                ),
                f("Drivers", "drivers", qty(3)),
            ],
        },
        Schema {
            name: "RealEstates".into(),
            fields: vec![
                f("City", "city", FieldKind::FreeText),
                f("State", "state", en(&["IL", "CA", "NY", "TX", "FL", "WA"])),
                f(
                    "Price",
                    "price",
                    nr(&["100000", "200000", "400000", "800000"]),
                ),
                f("Bedrooms", "beds", qty(6)),
                f("Bathrooms", "baths", qty(4)),
                f(
                    "Property type",
                    "ptype",
                    en(&["House", "Condo", "Townhouse", "Land"]),
                ),
                f("New construction", "newc", FieldKind::Flag),
            ],
        },
    ]
}

/// Sixteen generic mini-schemas standing in for invisible-web.net's
/// top-level categories (the Random dataset covered "16 out of the 18
/// top level domains", §6).
pub fn random_pools() -> Vec<Schema> {
    let topics: [(&str, [&str; 3]); 16] = [
        ("Reference", ["Encyclopedias", "Dictionaries", "Almanacs"]),
        ("Government", ["Federal", "State", "Local"]),
        ("Health", ["Clinics", "Trials", "Providers"]),
        ("Law", ["Cases", "Statutes", "Attorneys"]),
        ("News", ["Headlines", "Archives", "Columns"]),
        ("Shopping", ["Electronics", "Apparel", "Toys"]),
        ("Science", ["Journals", "Datasets", "Labs"]),
        ("Sports", ["Scores", "Teams", "Players"]),
        ("Travel", ["Tours", "Cruises", "Guides"]),
        ("Education", ["Colleges", "Courses", "Scholarships"]),
        ("Arts", ["Galleries", "Artists", "Auctions"]),
        ("Business", ["Companies", "Patents", "Trademarks"]),
        ("Computers", ["Software", "Hardware", "Drivers"]),
        ("Genealogy", ["Records", "Censuses", "Obituaries"]),
        ("Library", ["Catalogs", "Periodicals", "Theses"]),
        ("Weather", ["Forecasts", "Stations", "Storms"]),
    ];
    topics
        .iter()
        .map(|(name, cats)| Schema {
            name: (*name).to_string(),
            fields: vec![
                f("Keywords", "kw", FieldKind::FreeText),
                f("Title", "title", FieldKind::FreeText),
                f("Category", "cat", en(cats)),
                f("Date", "date", FieldKind::Date),
                f("Region", "region", en(&["North", "South", "East", "West"])),
                f("Results per page", "rpp", qty(5)),
                f("Price", "price", nr(&["10", "25", "50", "100"])),
                f("Exact match only", "exact", FieldKind::Flag),
                f("Name", "name", FieldKind::FreeText),
            ],
        })
        .collect()
}

/// Starting per-page parse budgets for batch runs over one domain's
/// sources — the first pass the adaptive escalation loop
/// (`FormExtractor::extract_batch_adaptive`) grows from. The table
/// encodes how ambiguous each survey domain's forms tend to be:
/// operator-heavy domains (Books, Airfares) start with more headroom
/// so their pages rarely need a retry, while the lean Random pools
/// start tight and lean on escalation for the occasional outlier.
/// Budgets here are *starting points*, not ceilings — the escalation
/// loop multiplies them for pages that need more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetPreset {
    /// First-pass `max_instances` cap per page.
    pub max_instances: usize,
    /// First-pass wall-clock deadline per page (`None` = unbounded).
    pub deadline: Option<Duration>,
}

impl BudgetPreset {
    /// Fallback preset for domains the table does not know.
    pub const GENERIC: BudgetPreset = BudgetPreset {
        max_instances: 20_000,
        deadline: Some(Duration::from_millis(500)),
    };

    /// The table: starting budgets for a named survey domain
    /// ([`books`], [`automobiles`], [`airfares`], the [`new_domains`],
    /// or a [`random_pools`] topic). Unknown names get
    /// [`BudgetPreset::GENERIC`].
    pub fn for_domain(name: &str) -> BudgetPreset {
        let (max_instances, deadline_ms) = match name {
            // Core survey domains: many fields, operator rows, radio
            // batteries — the most ambiguous forms in the corpus.
            "Books" | "Airfares" => (50_000, 1_000),
            "Automobiles" => (40_000, 1_000),
            // NewDomain schemas: mid-size forms.
            "Jobs" | "Movies" | "Music" | "Hotels" | "CarRentals" | "RealEstates" => (25_000, 500),
            // Random pools share one generic nine-field shape.
            _ if random_pools().iter().any(|s| s.name == name) => (10_000, 250),
            _ => return BudgetPreset::GENERIC,
        };
        BudgetPreset {
            max_instances,
            deadline: Some(Duration::from_millis(deadline_ms)),
        }
    }

    /// Derives a preset from a prior run's rollup: the observed mean
    /// instances per *grammar-path* page with 4× headroom, and the
    /// observed mean per-page compute time (batch wall-clock × workers
    /// ÷ pages) with 8× headroom — enough that a rerun of the same
    /// corpus completes its first pass clean, while a grown corpus
    /// still escalates only for true outliers. Floors keep a
    /// degenerate rollup (tiny pages, cold caches) from producing a
    /// budget that truncates everything.
    ///
    /// A rollup with **no grammar-path observation** — every page
    /// degraded to the baseline (whose parse counters are zeroed), so
    /// `created` says nothing about what the pages actually need —
    /// falls back to the [`BudgetPreset::GENERIC`] floor instead of
    /// recalibrating. Deriving from such a run used to produce the
    /// minimum budget (the opposite of what a fully-truncating domain
    /// needs): a rerun under it would degrade everything again, only
    /// harder.
    pub fn from_stats(stats: &BatchStats) -> BudgetPreset {
        // Degraded pages report zeroed parse counters, so only the
        // grammar-path and salvaged pages carry calibration signal.
        let informative = stats.pages.saturating_sub(stats.degraded);
        if stats.pages == 0 || informative == 0 || stats.created == 0 {
            return BudgetPreset::GENERIC;
        }
        let per_page = stats.created / informative;
        // Salvaged pages were cut off *at* their cap, so their counters
        // are a floor on what the pages need, not an estimate of it.
        // When salvage dominates the informative pages, double the
        // headroom and never fit below the GENERIC floor: a
        // salvage-heavy domain must grow toward completion, not freeze
        // at the degenerate-budget clamp just above the cap that
        // starved it.
        let salvage_heavy = stats.salvaged.saturating_mul(2) >= informative;
        let (headroom, floor) = if salvage_heavy {
            (8, BudgetPreset::GENERIC.max_instances)
        } else {
            (4, 1_000)
        };
        let max_instances = per_page.saturating_mul(headroom).max(floor);
        let per_page_us = u64::try_from(stats.elapsed.as_micros())
            .unwrap_or(u64::MAX)
            .saturating_mul(stats.workers.max(1) as u64)
            / stats.pages as u64;
        let deadline =
            Duration::from_micros(per_page_us.saturating_mul(8)).max(Duration::from_millis(50));
        BudgetPreset {
            max_instances,
            deadline: Some(deadline),
        }
    }

    /// Fits the adaptive driver's retry growth factor from a window of
    /// [`FailureRecord`] attempt trajectories — the self-tuning
    /// replacement for a fixed `budget_growth` multiplier.
    ///
    /// For each budget-limited story (`Truncated`/`Timeout` — panics
    /// and cancellations say nothing about budgets) the fitted factor
    /// is what *one* retry round would have needed to multiply the
    /// first attempt's cap by to cover the page: a recovered page
    /// needs its last (successful) attempt's `created`; a page that
    /// was still starving when the retries ran out (salvaged or
    /// degraded) needs one doubling past its final count. The result
    /// is the worst case over the window, clamped to `[2, 16]` —
    /// never below the default escalation floor, never so large that
    /// one round jumps a poison page to an absurd budget. Integer
    /// math throughout: the fit is deterministic for a given window.
    pub fn growth_from_failures(records: &[FailureRecord]) -> u32 {
        let mut growth: u64 = 2;
        for record in records {
            if !matches!(record.error, ErrorKind::Truncated | ErrorKind::Timeout) {
                continue;
            }
            let Some(first) = record.attempt_log.first() else {
                continue;
            };
            let last = record.attempt_log.last().expect("nonempty attempt log");
            if first.max_instances == 0 || last.created == 0 {
                continue;
            }
            let need = match record.outcome {
                FailureOutcome::Recovered => last.created as u64,
                _ => (last.created as u64).saturating_mul(2),
            };
            let cap = first.max_instances as u64;
            growth = growth.max(need.div_ceil(cap));
        }
        growth.min(16) as u32
    }

    /// Applies this preset to an extractor (builder style): the
    /// returned extractor runs its first pass under these budgets.
    pub fn apply(self, extractor: FormExtractor) -> FormExtractor {
        let extractor = extractor.max_instances(self.max_instances);
        match self.deadline {
            Some(d) => extractor.page_deadline(d),
            None => extractor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_domains_have_rich_pools() {
        for s in [books(), automobiles(), airfares()] {
            assert!(s.fields.len() >= 10, "{} too small", s.name);
        }
    }

    #[test]
    fn six_new_domains() {
        let nd = new_domains();
        assert_eq!(nd.len(), 6);
        assert!(nd.iter().any(|s| s.name == "RealEstates"));
        for s in &nd {
            assert!(s.fields.len() >= 6);
        }
    }

    #[test]
    fn sixteen_random_pools() {
        let pools = random_pools();
        assert_eq!(pools.len(), 16);
        let names: std::collections::BTreeSet<&str> =
            pools.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 16, "unique names");
    }

    #[test]
    fn budget_table_covers_every_survey_domain() {
        // Every schema the generators produce has a deliberate entry —
        // none falls through to the generic preset.
        for schema in [books(), automobiles(), airfares()]
            .into_iter()
            .chain(new_domains())
            .chain(random_pools())
        {
            let preset = BudgetPreset::for_domain(&schema.name);
            assert_ne!(preset, BudgetPreset::GENERIC, "{}", schema.name);
            assert!(preset.max_instances >= 10_000, "{}", schema.name);
            assert!(preset.deadline.is_some(), "{}", schema.name);
        }
        assert_eq!(
            BudgetPreset::for_domain("NoSuchDomain"),
            BudgetPreset::GENERIC
        );
        // Denser domains start with more headroom.
        assert!(
            BudgetPreset::for_domain("Books").max_instances
                > BudgetPreset::for_domain("Weather").max_instances
        );
    }

    #[test]
    fn presets_from_stats_scale_with_the_observed_run() {
        let stats = BatchStats {
            pages: 10,
            workers: 2,
            created: 50_000,                     // 5_000 per page
            elapsed: Duration::from_millis(100), // 20ms compute per page
            ..Default::default()
        };
        let preset = BudgetPreset::from_stats(&stats);
        assert_eq!(preset.max_instances, 20_000, "4x the observed mean");
        assert_eq!(preset.deadline, Some(Duration::from_millis(160)), "8x");
        // Floors hold for degenerate rollups.
        let tiny = BudgetPreset::from_stats(&BatchStats {
            pages: 100,
            workers: 1,
            created: 100,
            elapsed: Duration::from_micros(10),
            ..Default::default()
        });
        assert_eq!(tiny.max_instances, 1_000);
        assert_eq!(tiny.deadline, Some(Duration::from_millis(50)));
        assert_eq!(
            BudgetPreset::from_stats(&BatchStats::default()),
            BudgetPreset::GENERIC
        );
    }

    #[test]
    fn fully_degraded_rollup_falls_back_to_the_generic_floor() {
        // Every page was served by the baseline: the parse counters are
        // zeroed, so the rollup carries no calibration signal. The
        // derived preset must be the GENERIC floor, not the minimum
        // budget (which would truncate the whole domain again on a
        // rerun).
        let all_degraded = BatchStats {
            pages: 40,
            workers: 4,
            tokens: 2_000,
            created: 0,
            truncated: 40,
            degraded: 40,
            elapsed: Duration::from_millis(200),
            ..Default::default()
        };
        assert_eq!(
            BudgetPreset::from_stats(&all_degraded),
            BudgetPreset::GENERIC
        );

        // Partially degraded runs calibrate from the grammar-path pages
        // only — the zeroed baseline pages must not drag the mean down.
        let half_degraded = BatchStats {
            pages: 10,
            workers: 1,
            created: 25_000, // 5_000 per *grammar* page (5 of them)
            degraded: 5,
            truncated: 5,
            elapsed: Duration::from_millis(100),
            ..Default::default()
        };
        assert_eq!(
            BudgetPreset::from_stats(&half_degraded).max_instances,
            20_000,
            "4x the observed mean over grammar pages, not all pages"
        );
    }

    #[test]
    fn salvage_heavy_rollup_grows_toward_completion() {
        // Side by side with the all-degraded clamp above: an
        // all-*salvaged* window DOES carry signal — every page was cut
        // off at the starved cap — so the fit must grow past it (8×
        // headroom) and never land below the GENERIC floor. Freezing
        // at the 1_000 degenerate clamp would re-starve the domain on
        // every refit.
        let starved = BatchStats {
            pages: 40,
            workers: 4,
            tokens: 2_000,
            created: 20_000, // 500 per salvaged page: a tiny, starved cap
            truncated: 40,
            salvaged: 40,
            elapsed: Duration::from_millis(200),
            ..Default::default()
        };
        assert_eq!(
            BudgetPreset::from_stats(&starved).max_instances,
            BudgetPreset::GENERIC.max_instances,
            "tiny salvaged caps climb to the GENERIC floor, not 8x-of-tiny"
        );

        // Once the salvaged mean is large enough, 8× headroom wins
        // over the floor — twice what the same window would fit if its
        // pages had completed on the grammar path.
        let rich = BatchStats {
            pages: 40,
            workers: 4,
            created: 200_000, // 5_000 per salvaged page
            truncated: 40,
            salvaged: 40,
            elapsed: Duration::from_millis(200),
            ..Default::default()
        };
        assert_eq!(BudgetPreset::from_stats(&rich).max_instances, 40_000, "8x");
        let clean = BatchStats {
            salvaged: 0,
            truncated: 0,
            ..rich
        };
        assert_eq!(
            BudgetPreset::from_stats(&clean).max_instances,
            20_000,
            "the same counters on the grammar path fit 4x"
        );
    }

    #[test]
    fn growth_fits_from_attempt_trajectories() {
        use metaform_extractor::AttemptRecord;

        fn attempt(attempt: usize, cap: usize, created: usize) -> AttemptRecord {
            AttemptRecord {
                attempt,
                max_instances: cap,
                deadline_ms: None,
                error: Some(ErrorKind::Truncated),
                cache: None,
                tokens: 50,
                created,
                elapsed_us: 0,
            }
        }
        fn record(
            outcome: FailureOutcome,
            error: ErrorKind,
            attempt_log: Vec<AttemptRecord>,
        ) -> FailureRecord {
            FailureRecord {
                page_index: 0,
                error,
                message: None,
                attempts: attempt_log.len(),
                outcome,
                final_max_instances: attempt_log.last().map_or(0, |a| a.max_instances),
                final_deadline_ms: None,
                salvage_covered: None,
                salvage_tokens: None,
                partial_roots: Vec::new(),
                arrangements: Vec::new(),
                attempt_log,
            }
        }

        // No evidence: the default escalation floor.
        assert_eq!(BudgetPreset::growth_from_failures(&[]), 2);

        // A recovered page needed 5× its first cap — one round at
        // growth 5 would have covered it.
        let recovered = record(
            FailureOutcome::Recovered,
            ErrorKind::Truncated,
            vec![attempt(0, 1_000, 1_000), attempt(1, 4_000, 5_000)],
        );
        assert_eq!(
            BudgetPreset::growth_from_failures(std::slice::from_ref(&recovered)),
            5
        );

        // A salvaged page was still starving at its final count: aim
        // one doubling past it (4_000 × 2 / 1_000 = 8).
        let salvaged = record(
            FailureOutcome::Salvaged,
            ErrorKind::Truncated,
            vec![attempt(0, 1_000, 1_000), attempt(1, 4_000, 4_000)],
        );
        assert_eq!(
            BudgetPreset::growth_from_failures(&[recovered, salvaged.clone()]),
            8,
            "the worst case over the window wins"
        );

        // Panics say nothing about budgets; absurd needs clamp at 16.
        let panicked = record(
            FailureOutcome::Degraded,
            ErrorKind::Panicked,
            vec![attempt(0, 1, 1_000_000)],
        );
        assert_eq!(BudgetPreset::growth_from_failures(&[panicked]), 2);
        let poison = record(
            FailureOutcome::Degraded,
            ErrorKind::Truncated,
            vec![attempt(0, 10, 1_000_000)],
        );
        assert_eq!(BudgetPreset::growth_from_failures(&[poison]), 16);
    }

    #[test]
    fn presets_apply_to_extractors() {
        let preset = BudgetPreset::for_domain("Books");
        let extractor = preset.apply(FormExtractor::new());
        assert_eq!(extractor.budgets(), (preset.max_instances, preset.deadline));
        let unbounded = BudgetPreset {
            max_instances: 7,
            deadline: None,
        };
        assert_eq!(unbounded.apply(FormExtractor::new()).budgets(), (7, None));
    }

    #[test]
    fn labels_are_nonempty_and_kinds_consistent() {
        for schema in [books(), automobiles(), airfares()]
            .into_iter()
            .chain(new_domains())
            .chain(random_pools())
        {
            for field in &schema.fields {
                assert!(!field.label.is_empty());
                assert!(!field.control.is_empty());
                if let FieldKind::Enum(v) = &field.kind {
                    assert!(v.len() >= 2, "{}.{}", schema.name, field.label);
                }
            }
        }
    }
}
