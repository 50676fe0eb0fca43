//! # mlkit
//!
//! A small, dependency-light regression toolkit implementing exactly the
//! models and evaluation protocol the paper uses through scikit-learn:
//!
//! * [`Lasso`](linear::Lasso) — L1-regularized linear regression via cyclic
//!   coordinate descent;
//! * [`MlpRegressor`](ann::MlpRegressor) — a feed-forward neural network
//!   (ReLU hidden layers, Adam optimizer);
//! * [`GbrtRegressor`](gbrt::GbrtRegressor) — gradient-boosted regression
//!   trees with split-count feature importance (the paper's §IV-B measure);
//! * [`metrics`] — MAE and MedAE (the paper's Table IV columns), RMSE, R²;
//! * [`cv`] — k-fold cross-validation and grid search;
//! * [`scaler`] — feature standardization.
//!
//! ```
//! use mlkit::dataset::Matrix;
//! use mlkit::linear::{Lasso, LassoOptions};
//! use mlkit::model::Regressor;
//!
//! // y = 2 x0, noise-free
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
//! let y = vec![0.0, 2.0, 4.0, 6.0];
//! let mut m = Lasso::new(LassoOptions { alpha: 1e-4, ..Default::default() });
//! m.fit(&x, &y);
//! assert!((m.predict_one(&[1.5]) - 3.0).abs() < 0.1);
//! ```

pub mod ann;
pub mod binning;
pub mod compiled;
pub mod cv;
pub mod dataset;
pub mod gbrt;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod scaler;
pub mod telemetry;
pub mod tree;

pub use ann::{MlpOptions, MlpRegressor};
pub use binning::BinnedMatrix;
pub use compiled::CompiledEnsemble;
pub use cv::CvError;
pub use dataset::{Dataset, Matrix};
pub use gbrt::{GbrtOptions, GbrtRegressor};
pub use linear::{Lasso, LassoOptions};
pub use model::Regressor;
pub use scaler::StandardScaler;
pub use telemetry::ModelTelemetry;
