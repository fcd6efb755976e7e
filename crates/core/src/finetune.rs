//! Fine-tuning hyper-parameters (paper Table 1).

/// One row of Table 1: the fine-tuning recipe for one evaluation model.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperParams {
    /// Model name as printed in the paper.
    pub model: &'static str,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Optimizer name (AdamW for every model in the paper).
    pub optimizer: &'static str,
}

impl HyperParams {
    /// The full Table 1.
    pub fn table1() -> Vec<HyperParams> {
        vec![
            HyperParams {
                model: "BERT-Base",
                batch_size: 32,
                learning_rate: 2e-5,
                optimizer: "AdamW",
            },
            HyperParams {
                model: "BERT-Large",
                batch_size: 32,
                learning_rate: 5e-6,
                optimizer: "AdamW",
            },
            HyperParams {
                model: "GPT-2",
                batch_size: 2,
                learning_rate: 2e-5,
                optimizer: "AdamW",
            },
            HyperParams {
                model: "Llama3",
                batch_size: 2,
                learning_rate: 2e-5,
                optimizer: "AdamW",
            },
            HyperParams {
                model: "ViT-Base",
                batch_size: 10,
                learning_rate: 5e-6,
                optimizer: "AdamW",
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Looks up the row for a model name (prefix match, e.g. "BERT-Base").
    fn for_model(name: &str) -> Option<HyperParams> {
        HyperParams::table1()
            .into_iter()
            .find(|h| name.starts_with(h.model))
    }

    #[test]
    fn table1_matches_paper_values() {
        let rows = HyperParams::table1();
        assert_eq!(rows.len(), 5);
        let bert = for_model("BERT-Base").unwrap();
        assert_eq!(bert.batch_size, 32);
        assert!((bert.learning_rate - 2e-5).abs() < 1e-12);
        let large = for_model("BERT-Large").unwrap();
        assert!((large.learning_rate - 5e-6).abs() < 1e-12);
        let gpt = for_model("GPT-2").unwrap();
        assert_eq!(gpt.batch_size, 2);
        assert!(rows.iter().all(|r| r.optimizer == "AdamW"));
    }
}
