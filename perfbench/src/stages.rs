//! ETL stages shared by the workloads.

use deeplens_codec::Image;
use deeplens_core::prelude::*;
use deeplens_core::types::PatchSchema;

use crate::trace;

/// A `deeplens_vision` featurizer as a transformer stage, timed as a
/// `vision.featurize` span.
pub struct VisionFeatures {
    pub label: &'static str,
    pub dim: usize,
    pub f: fn(&Image) -> Vec<f32>,
}

impl Transformer for VisionFeatures {
    fn name(&self) -> &str {
        self.label
    }

    fn input_schema(&self) -> PatchSchema {
        PatchSchema::pixels()
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema::features(self.dim)
    }

    fn transform(&self, patch: &Patch, ids: &mut PatchIdRange) -> deeplens_core::Result<Patch> {
        let img = patch.data.pixels().ok_or_else(|| {
            DlError::SchemaMismatch(format!("{} needs a pixel patch", self.label))
        })?;
        let features = {
            let _s = trace::span("vision.featurize");
            (self.f)(img)
        };
        Ok(patch.derive(ids.alloc(), PatchData::Features(features)))
    }
}
