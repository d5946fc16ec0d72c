//! Process-wide compile-once guarantees. This test binary deliberately
//! never touches the one-shot `parse`/`parse_with` path, so the global
//! counters must show exactly one grammar compilation and one schedule
//! build for the whole process, no matter how much parsing happens.

use metaform::{global_compiled, AdaptiveOptions, FormExtractor};
use metaform_grammar::{compile_count, schedule_build_count};

#[test]
fn the_global_grammar_compiles_exactly_once() {
    let a = global_compiled();
    let b = global_compiled();
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "global_compiled must hand out the same artifact"
    );

    // Parse a lot, across threads, through every public surface that
    // rides on the compiled grammar.
    let pages: Vec<String> = (0..16)
        .map(|i| {
            format!(
                "<form>Field{i} <input type=text name=f{i}>\
                 <input type=submit value=Go></form>"
            )
        })
        .collect();
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();

    let extractor = FormExtractor::new().worker_threads(4);
    let one_pass = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    let batch = extractor.extract_batch_adaptive(&refs, &one_pass);
    assert_eq!(batch.extractions.len(), refs.len());
    assert_eq!(
        batch.stats.schedules_built, 0,
        "batch parses must not rebuild schedules"
    );

    let mut session = extractor.session();
    for page in &refs {
        let extraction = extractor.extract(page);
        assert_eq!(extraction.stats.schedules_built, 0);
        let tokens = extraction.tokens;
        let result = session.parse(&tokens);
        assert_eq!(result.stats.schedules_built, 0);
        session.recycle(result);
    }

    assert_eq!(
        compile_count(),
        1,
        "one CompiledGrammar for the whole process"
    );
    assert_eq!(
        schedule_build_count(),
        1,
        "one schedule build for the whole process"
    );
}
