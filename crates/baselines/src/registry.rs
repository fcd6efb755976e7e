//! Tests of the backend roster as a whole: [`BACKENDS`] and
//! [`PAPER_FIGURE_BACKENDS`], [`ensure_known`], and every name built
//! through [`SystemBuilder`].

mod tests {
    use crate::system::{ensure_known, SystemBuilder, BACKENDS, PAPER_FIGURE_BACKENDS};
    use hyflex_pim::backend::InferenceRequest;
    use hyflex_transformer::config::ModelConfig;

    #[test]
    fn registry_lists_all_paper_designs_in_order() {
        assert_eq!(
            BACKENDS,
            [
                "hyflexpim",
                "asadi-int8",
                "asadi-fp32",
                "nmp",
                "sprint",
                "non-pim",
                "analog-attention"
            ]
        );
        // The figure roster stays pinned to the paper's six designs so the
        // published-figure binaries keep their output stable as serving-only
        // backends are added.
        assert_eq!(
            PAPER_FIGURE_BACKENDS,
            [
                "hyflexpim",
                "asadi-int8",
                "asadi-fp32",
                "nmp",
                "sprint",
                "non-pim"
            ]
        );
        assert!(ensure_known("sprint").is_ok());
        assert!(ensure_known("analog-attention").is_ok());
        assert!(ensure_known("tpu").is_err());
    }

    #[test]
    fn every_registered_backend_builds_and_evaluates() {
        for name in BACKENDS {
            let backend = SystemBuilder::paper()
                .model(ModelConfig::bert_large())
                .backend(name)
                .build()
                .unwrap();
            let summary = backend.evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
            assert!(
                summary.latency.total_ns() > 0.0,
                "{name} reports no latency"
            );
            let batched = backend.evaluate_batched(128, 4).unwrap();
            assert_eq!(batched.single, summary, "{name} batched/single mismatch");
            assert!(backend.capacity() >= backend.request_cells(128), "{name}");
        }
    }

    #[test]
    fn unknown_names_list_the_available_backends() {
        let err = SystemBuilder::paper()
            .model(ModelConfig::bert_base())
            .backend("tpu-v7")
            .build()
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("tpu-v7"), "{message}");
        for name in BACKENDS {
            assert!(message.contains(name), "{message} should list {name}");
        }
        // `ensure_known` gives the same verdict without building anything.
        assert_eq!(ensure_known("tpu-v7").unwrap_err().to_string(), message);
    }

    #[test]
    fn hyflexpim_entry_honors_the_mlc_mode() {
        let build = |bits: u8| {
            SystemBuilder::paper()
                .model(ModelConfig::bert_large())
                .mlc_bits(bits)
                .backend("hyflexpim")
                .build()
                .unwrap()
        };
        let e2 = build(2).evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
        let e4 = build(4).evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
        // Denser cells pack more bits per array: the mappings differ.
        assert_ne!(e2.energy.total_pj(), e4.energy.total_pj());
    }
}
