//! Trainable parameter storage.
//!
//! Parameters live outside the tape (which is rebuilt every iteration) in a
//! [`ParamStore`]. A model injects each parameter onto the tape at the start
//! of its forward pass via [`crate::tape::Tape::param`]; after `backward`,
//! [`ParamStore::accumulate_grads`] copies the gradients back out.

use crate::tensor::Tensor;

/// Stable identifier of a parameter within its store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One named parameter with its gradient accumulator.
#[derive(Clone, Debug)]
pub struct ParamEntry {
    /// Dotted path name, e.g. `interaction.0.atom_conv.gate.w`.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

/// A flat store of named parameters.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.entries.push(ParamEntry { name: name.into(), value, grad });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameter tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total trainable scalar count (the paper reports 412.5K / 429.1K).
    pub fn n_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Entry accessor.
    pub fn entry(&self, id: ParamId) -> &ParamEntry {
        &self.entries[id.0]
    }

    /// Mutable entry accessor.
    pub fn entry_mut(&mut self, id: ParamId) -> &mut ParamEntry {
        &mut self.entries[id.0]
    }

    /// Value accessor.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Iterate entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &ParamEntry)> {
        self.entries.iter().enumerate().map(|(i, e)| (ParamId(i), e))
    }

    /// Iterate entries mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut ParamEntry)> {
        self.entries.iter_mut().enumerate().map(|(i, e)| (ParamId(i), e))
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for e in &mut self.entries {
            e.grad.fill(0.0);
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.grad.data().iter().map(|&g| (g as f64) * (g as f64)).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Copy all parameter values from `other` (shapes must match).
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.entries.len(), other.entries.len(), "param store layout mismatch");
        for (dst, src) in self.entries.iter_mut().zip(&other.entries) {
            assert_eq!(
                dst.value.shape(),
                src.value.shape(),
                "param shape mismatch for {}",
                dst.name
            );
            dst.value = src.value.clone();
        }
    }

    /// Serialize values to a simple little-endian binary image
    /// (`name-len, name, rows, cols, data` per entry).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            let nb = e.name.as_bytes();
            out.extend_from_slice(&(nb.len() as u64).to_le_bytes());
            out.extend_from_slice(nb);
            out.extend_from_slice(&(e.value.rows() as u64).to_le_bytes());
            out.extend_from_slice(&(e.value.cols() as u64).to_le_bytes());
            for &x in e.value.data() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// Deserialize a store written by [`ParamStore::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            if *pos + n > bytes.len() {
                return Err("truncated parameter image".into());
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let read_u64 = |pos: &mut usize| -> Result<u64, String> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
        };
        let count = read_u64(&mut pos)? as usize;
        let mut store = ParamStore::new();
        for _ in 0..count {
            let name_len = read_u64(&mut pos)? as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|e| format!("bad parameter name: {e}"))?;
            let rows = read_u64(&mut pos)? as usize;
            let cols = read_u64(&mut pos)? as usize;
            let raw = take(&mut pos, rows * cols * 4)?;
            let data: Vec<f32> =
                raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            store.add(name, Tensor::from_vec(crate::shape::Shape::new(rows, cols), data));
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_count() {
        let mut s = ParamStore::new();
        let a = s.add("w1", Tensor::zeros(3, 4));
        let b = s.add("b1", Tensor::zeros(1, 4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.n_scalars(), 16);
        assert_eq!(s.entry(a).name, "w1");
        assert_eq!(s.value(b).shape().cols, 4);
    }

    #[test]
    fn zero_grads_and_norm() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::ones(2, 2));
        s.entry_mut(a).grad = Tensor::full(2, 2, 3.0);
        assert!((s.grad_norm() - 6.0).abs() < 1e-9);
        s.zero_grads();
        assert_eq!(s.grad_norm(), 0.0);
    }

    #[test]
    fn roundtrip_bytes() {
        let mut s = ParamStore::new();
        s.add("alpha", Tensor::from_rows(&[vec![1.0, -2.0], vec![3.5, 0.25]]));
        s.add("beta", Tensor::col_vec(&[9.0]));
        let bytes = s.to_bytes();
        let r = ParamStore::from_bytes(&bytes).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.entry(ParamId(0)).name, "alpha");
        assert!(r.value(ParamId(0)).approx_eq(s.value(ParamId(0)), 0.0));
        assert!(r.value(ParamId(1)).approx_eq(s.value(ParamId(1)), 0.0));
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::ones(4, 4));
        let bytes = s.to_bytes();
        assert!(ParamStore::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn copy_values() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::zeros(2, 2));
        let mut b = ParamStore::new();
        b.add("w", Tensor::ones(2, 2));
        a.copy_values_from(&b);
        assert!(a.value(ParamId(0)).approx_eq(&Tensor::ones(2, 2), 0.0));
    }
}
