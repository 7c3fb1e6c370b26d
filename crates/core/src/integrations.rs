//! Concrete implementations of the integration interfaces — the outermost
//! ring of the Clean Architecture (paper Figure 5):
//!
//! | Interface        | Implementations here                                |
//! |------------------|-----------------------------------------------------|
//! | Repository       | [`record_store::RecordStore`] (SQLite stand-in), [`csv_repo::CsvRepository`] |
//! | Application Runner | [`hpcg_runner::HpcgRunner`], [`generic_runner::GenericRunner`] |
//! | System Service   | [`monitoring::IpmiService`], [`monitoring::ClusterPowerApi`] |
//! | System Info      | [`monitoring::LscpuInfo`]                           |
//! | Local Storage    | [`storage::EtcStorage`]                             |
//! | File Repository  | [`storage::LocalBlobStore`]                         |

pub mod codec;
pub mod csv_repo;
pub mod generic_runner;
pub mod hpcg_runner;
pub mod monitoring;
pub mod record_store;
pub mod storage;
