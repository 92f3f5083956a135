//! The experiment suite: one module per quantitative claim or construct
//! in the paper (the table in the [crate docs](crate) is the index).

pub mod e1;
pub mod e10;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
