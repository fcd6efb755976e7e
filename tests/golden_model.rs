//! Golden bit-identity fixtures for the transformer layer-graph refactor.
//!
//! The files under `tests/fixtures/` capture seeded `forward` and
//! `forward_backward` outputs of the pre-refactor hand-wired model. Every
//! `f32` is stored as its exact IEEE-754 bit pattern and compared with bit
//! equality, so any numeric drift introduced by restructuring the model —
//! however small — fails CI. The cases cover all three topologies the graph
//! builder assembles (encoder, decoder, vision encoder) plus gradient
//! accumulation through the full backward pass (including the vision
//! model's patch projection), for dense and for truncated-SVD factored
//! models (whose `sigma` gradients are the gradient redistribution's SLC/MLC
//! selection signal).
//!
//! Regenerate (only when intentionally re-baselining the numerics) with:
//! `cargo test --test golden_model -- --ignored regenerate_golden_fixtures`

use hyflex_tensor::rng::Rng;
use hyflex_tensor::svd::hard_threshold_rank;
use hyflex_tensor::{Matrix, SvdAlgorithm};
use hyflex_transformer::layers::AnyLinear;
use hyflex_transformer::{FactoredLinear, ModelConfig, ModelInput, TransformerModel};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_{case}.txt"))
}

/// Encodes named matrices as a text fixture: one `# name` header per matrix,
/// a `rows cols` line, then one line of hex `f32::to_bits` words per row.
fn encode(sections: &[(String, Matrix)]) -> String {
    let mut out = String::new();
    for (name, m) in sections {
        writeln!(out, "# {name}").unwrap();
        writeln!(out, "{} {}", m.rows(), m.cols()).unwrap();
        for r in 0..m.rows() {
            let row = m
                .row(r)
                .iter()
                .map(|v| format!("{:08x}", v.to_bits()))
                .collect::<Vec<_>>()
                .join(" ");
            writeln!(out, "{row}").unwrap();
        }
    }
    out
}

fn decode(text: &str) -> Vec<(String, Matrix)> {
    let mut sections = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(header) = lines.next() {
        let name = header
            .strip_prefix("# ")
            .unwrap_or_else(|| panic!("fixture section header expected, got {header:?}"));
        let shape = lines.next().expect("fixture shape line");
        let mut dims = shape
            .split_whitespace()
            .map(|d| d.parse::<usize>().unwrap());
        let (rows, cols) = (dims.next().unwrap(), dims.next().unwrap());
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let line = lines.next().expect("fixture data row");
            data.extend(
                line.split_whitespace()
                    .map(|w| f32::from_bits(u32::from_str_radix(w, 16).unwrap())),
            );
        }
        assert_eq!(
            data.len(),
            rows * cols,
            "fixture {name} row length mismatch"
        );
        let m = Matrix::from_vec(rows, cols, data).expect("fixture shape");
        sections.push((name.to_string(), m));
    }
    sections
}

/// The dense weight gradient of one static linear, for gradient capture.
fn weight_grad(linear: &AnyLinear) -> Matrix {
    match linear {
        AnyLinear::Dense(d) => d.weight_param().grad().clone(),
        AnyLinear::Factored(_) => panic!("golden cases use dense models"),
    }
}

/// Runs one named golden case and returns its `(name, matrix)` captures.
fn run_case(case: &str) -> Vec<(String, Matrix)> {
    match case {
        "encoder_forward" => {
            let mut rng = Rng::seed_from(42);
            let model = TransformerModel::new(ModelConfig::tiny_encoder(3), &mut rng).unwrap();
            let logits = model
                .forward(&ModelInput::Tokens(vec![1, 5, 9, 2, 0, 7]))
                .unwrap();
            vec![("logits".to_string(), logits)]
        }
        "decoder_forward" => {
            let mut rng = Rng::seed_from(43);
            let model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
            let logits = model
                .forward(&ModelInput::Tokens(vec![3, 1, 4, 1, 5]))
                .unwrap();
            vec![("logits".to_string(), logits)]
        }
        "vit_forward" => {
            let mut rng = Rng::seed_from(44);
            let model = TransformerModel::new(ModelConfig::tiny_vit(10), &mut rng).unwrap();
            let patches = Matrix::random_normal(9, 24, 0.0, 1.0, &mut rng);
            let logits = model.forward(&ModelInput::Features(patches)).unwrap();
            vec![("logits".to_string(), logits)]
        }
        "encoder_backward" => {
            let mut rng = Rng::seed_from(45);
            let mut model = TransformerModel::new(ModelConfig::tiny_encoder(3), &mut rng).unwrap();
            let input = ModelInput::Tokens(vec![2, 8, 1, 1, 6]);
            let (logits, d_logits) = model
                .forward_backward(&input, &mut |logits: &Matrix| Ok(logits.scale(0.5)))
                .unwrap();
            let blocks = model.blocks();
            vec![
                ("logits".to_string(), logits),
                ("d_logits".to_string(), d_logits),
                (
                    "blocks.0.attn.q_proj.weight.grad".to_string(),
                    weight_grad(blocks[0].attention().projections()[0]),
                ),
                (
                    "blocks.1.ffn.fc2.weight.grad".to_string(),
                    weight_grad(blocks[1].ffn().layers()[1]),
                ),
            ]
        }
        "decoder_backward" => {
            let mut rng = Rng::seed_from(46);
            let mut model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
            let input = ModelInput::Tokens(vec![7, 7, 3, 0]);
            let (logits, _) = model
                .forward_backward(&input, &mut |logits: &Matrix| Ok(logits.scale(0.25)))
                .unwrap();
            let blocks = model.blocks();
            vec![
                ("logits".to_string(), logits),
                (
                    "blocks.0.attn.v_proj.weight.grad".to_string(),
                    weight_grad(blocks[0].attention().projections()[2]),
                ),
            ]
        }
        "vit_backward" => {
            let mut rng = Rng::seed_from(48);
            let mut model = TransformerModel::new(ModelConfig::tiny_vit(10), &mut rng).unwrap();
            let patches = Matrix::random_normal(9, 24, 0.0, 1.0, &mut rng);
            let (logits, d_logits) = model
                .forward_backward(&ModelInput::Features(patches), &mut |logits: &Matrix| {
                    Ok(logits.scale(0.5))
                })
                .unwrap();
            let params = model.params();
            let mut captures = vec![
                ("logits".to_string(), logits),
                ("d_logits".to_string(), d_logits),
            ];
            for name in [
                "patch_proj.weight",
                "patch_proj.bias",
                "blocks.0.attn.k_proj.weight",
                "blocks.1.ffn.fc1.weight",
            ] {
                let grad = params.get(name).unwrap().grad().clone();
                captures.push((format!("{name}.grad"), grad));
            }
            captures
        }
        "factored_backward" => {
            let mut rng = Rng::seed_from(47);
            let mut model = TransformerModel::new(ModelConfig::tiny_encoder(3), &mut rng).unwrap();
            for (_, layer) in model.named_linears_mut() {
                let AnyLinear::Dense(dense) = &*layer else {
                    panic!("a freshly built model is dense");
                };
                let rank = hard_threshold_rank(dense.in_dim(), dense.out_dim());
                let factored = FactoredLinear::from_weight_seeded(
                    dense.weight(),
                    rank,
                    SvdAlgorithm::Jacobi,
                    None,
                )
                .unwrap();
                *layer = AnyLinear::Factored(factored);
            }
            let input = ModelInput::Tokens(vec![4, 0, 9, 3, 3]);
            let (logits, _) = model
                .forward_backward(&input, &mut |logits: &Matrix| Ok(logits.scale(0.5)))
                .unwrap();
            let params = model.params();
            let mut captures = vec![("logits".to_string(), logits)];
            for layer in ["blocks.0.attn.q_proj", "blocks.1.ffn.fc2"] {
                for factor in ["u", "sigma", "vt"] {
                    let name = format!("{layer}.{factor}");
                    let grad = params.get(&name).unwrap().grad().clone();
                    captures.push((format!("{name}.grad"), grad));
                }
            }
            captures
        }
        other => panic!("unknown golden case {other}"),
    }
}

const CASES: &[&str] = &[
    "encoder_forward",
    "decoder_forward",
    "vit_forward",
    "encoder_backward",
    "decoder_backward",
    "factored_backward",
    "vit_backward",
];

#[test]
fn golden_fixtures_match_bit_exactly() {
    for case in CASES {
        let path = fixture_path(case);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let expected = decode(&text);
        let actual = run_case(case);
        assert_eq!(
            expected.len(),
            actual.len(),
            "golden case {case}: capture count changed"
        );
        for ((en, em), (an, am)) in expected.iter().zip(&actual) {
            assert_eq!(en, an, "golden case {case}: capture name changed");
            assert_eq!(
                em.shape(),
                am.shape(),
                "golden case {case}/{en}: shape changed"
            );
            for r in 0..em.rows() {
                for (c, (e, a)) in em.row(r).iter().zip(am.row(r)).enumerate() {
                    assert_eq!(
                        e.to_bits(),
                        a.to_bits(),
                        "golden case {case}/{en}[{r},{c}]: {e:?} != {a:?}"
                    );
                }
            }
        }
    }
}

/// Round-trip sanity of the fixture codec itself.
#[test]
fn fixture_codec_round_trips() {
    let m =
        Matrix::from_rows(&[vec![1.5, -0.0, f32::MIN_POSITIVE], vec![3.25, -7.5, 0.0]]).unwrap();
    let sections = vec![("demo".to_string(), m)];
    let decoded = decode(&encode(&sections));
    assert_eq!(sections, decoded);
}

/// Rewrites every fixture from the current implementation. Ignored by
/// default: run only when intentionally re-baselining the golden numerics.
#[test]
#[ignore = "rewrites the golden fixtures; run only to re-baseline"]
fn regenerate_golden_fixtures() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    for case in CASES {
        let sections = run_case(case);
        std::fs::write(fixture_path(case), encode(&sections)).unwrap();
    }
}
