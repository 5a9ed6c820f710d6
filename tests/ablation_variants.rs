//! Integration coverage of the Table III ablation variants: every variant
//! must train to finite, rankable state, and the structural toggles must
//! observably change the model.

use logirec_suite::core::{train, Geometry, LogiRecConfig, Variant};
use logirec_suite::data::{DatasetSpec, Scale, Split};
use logirec_suite::eval::evaluate;
use logirec_suite::hyperbolic::lorentz;

fn base_cfg() -> LogiRecConfig {
    LogiRecConfig {
        dim: 16,
        epochs: 6,
        eval_every: 0,
        patience: 0,
        ..LogiRecConfig::default()
    }
}

#[test]
fn every_table3_variant_trains_and_ranks() {
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(21);
    for variant in Variant::table3() {
        let cfg = variant.apply(base_cfg());
        let (model, report) = train(cfg, &ds);
        assert!(model.all_finite(), "{}: non-finite parameters", variant.label());
        assert!(report.history.iter().all(|h| h.rank_loss.is_finite()));
        let r = evaluate(&model, &ds, Split::Test, &[10], 2).recall_at(10);
        assert!(r.is_finite() && r >= 0.0, "{}: recall {r}", variant.label());
    }
}

#[test]
fn without_hgcn_uses_zero_layers() {
    let cfg = Variant::WithoutHgcn.apply(base_cfg());
    assert_eq!(cfg.layers, 0);
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(22);
    let (model, _) = train(cfg, &ds);
    // With L = 0 the final is the exp map of the layer-0 tangent, bit
    // for bit.
    let st = model.state();
    let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for u in 0..5 {
        let z0 = lorentz::log_origin(model.users.row(u));
        assert_eq!(bits(st.user_final.row(u)), bits(&lorentz::exp_origin(&z0)));
    }
}

#[test]
fn without_hyper_is_euclidean_end_to_end() {
    let cfg = Variant::WithoutHyper.apply(base_cfg());
    assert_eq!(cfg.geometry, Geometry::Euclidean);
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(23);
    let (model, _) = train(cfg, &ds);
    assert_eq!(model.users.dim(), model.cfg.dim, "no time coordinate in Euclidean mode");
    assert_eq!(model.state().user_final.dim(), model.cfg.dim);
}

#[test]
fn variant_outputs_differ_from_full_model() {
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(24);
    let (full, _) = train(base_cfg(), &ds);
    let full_r = evaluate(&full, &ds, Split::Test, &[20], 2).recall_at(20);
    for variant in [Variant::WithoutHgcn, Variant::WithoutHyper] {
        let (m, _) = train(variant.apply(base_cfg()), &ds);
        let r = evaluate(&m, &ds, Split::Test, &[20], 2).recall_at(20);
        assert!(
            (r - full_r).abs() > 1e-9,
            "{} should produce different rankings than the full model",
            variant.label()
        );
    }
}
