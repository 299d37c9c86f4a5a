// What R11–R13 used to police is no finding, and needs no annotation.
use std::rc::Rc;

struct Payload {
    data: Rc<[u8]>,
}

fn hot(p: &Payload) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&p.data);
    out
}
